(** Independent trace verification.

    Nothing here trusts the runner's bookkeeping beyond the raw delivery
    facts: environment obligations are re-derived from the timely sets, and
    the consensus properties are re-derived from inputs and decisions. *)

type violation =
  | Agreement_violation of { p1 : int; v1 : Anon_kernel.Value.t; p2 : int; v2 : Anon_kernel.Value.t }
  | Validity_violation of { pid : int; value : Anon_kernel.Value.t }
  | Termination_violation of { undecided : int list; horizon : int }
  | No_source of { round : int }
  | Source_not_timely of { round : int; sender : int; missing : int list }
  | Unstable_source of { gst : int }
  | No_root of { round : int; window : int; senders : (int * int list) list }
      (** A rooted [Dynamic] pulse round where no sender covered the
          obligated receivers; [senders] lists every correct sender with
          the receivers it missed (the offending links). *)
  | Stability_violation of { round : int; window : int; sender : int; missing : int list }
      (** A healed round of a [Dynamic] stability window where a correct
          [sender] was late to [missing] obligated receivers. *)
  | Weak_set_lost_add of { value : Anon_kernel.Value.t; get_client : int; get_invoked : int }
  | Weak_set_phantom_value of { value : Anon_kernel.Value.t; get_client : int }
  | Register_stale_read of {
      reader : int;
      read_value : Anon_kernel.Value.t;
      expected : Anon_kernel.Value.t;
    }

val pp_violation : Format.formatter -> violation -> unit

val check_env : Trace.t -> violation list
(** Verify that the trace satisfies the environment recorded in it:
    - [Sync]: every correct sender covered every obligated receiver timely,
      in every round;
    - [Ms]: every round with obligations had {e some} sender covering them;
    - [Es gst]: MS always, and from [gst] on every correct sender covered
      the obligated receivers;
    - [Ess gst]: MS always, and one single correct process covered the
      obligated receivers in {e every} round from [gst] on — allowing the
      stable source to change only when the previous one decided and
      halted (halted processes execute no rounds, so the obligation
      passes on). Every process that covered the whole segment so far
      counts as its stable source, so the halt of any one of them ends
      the segment;
    - [Async]: nothing;
    - [Dynamic (stability, rooted)]: each pulse round (the first of every
      [stability]-round window) needs, when [rooted], some sender covering
      every obligated receiver (root reachability); every other round of
      the window needs every correct sender timely to every obligated
      receiver (the healed graph). *)

val check_consensus :
  ?expect_termination:bool -> Trace.t -> violation list
(** Validity of every decision; agreement and (when [expect_termination],
    default [true]) termination of every correct {e stayer} — processes
    with a churn event are exempt from the latter two, because a rejoiner
    restarting after the stayers halted can legitimately decide alone. *)

(** Operation records for weak-set semantics checking. Timestamps come from
    any totally ordered logical clock shared by all operations of a run. *)
type ws_add = {
  add_client : int;
  add_value : Anon_kernel.Value.t;
  add_invoked : int;
  add_completed : int option;  (** [None] while still pending at run end. *)
}

type ws_get = {
  get_client : int;
  get_result : Anon_kernel.Value.Set.t;
  get_invoked : int;
  get_completed : int;
}

type ws_op = Ws_add of ws_add | Ws_get of ws_get

val check_weak_set : ?correct:int list -> ws_op list -> violation list
(** The two weak-set axioms (§5):
    - every [get] returns every value whose [add] completed before the
      [get] was invoked;
    - no [get] returns a value whose [add] had not been invoked before the
      [get] completed.

    When [correct] is given, the first (liveness-flavoured) axiom is only
    enforced for [get]s by correct clients: Alg. 4's guarantee rides on
    the source reaching every {e correct} process (Lemma 8), so a process
    that later crashes may see a stale subset. The second axiom is safety
    and is enforced for everybody. *)
