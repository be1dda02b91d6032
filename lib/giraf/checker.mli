(** Independent safety verification: the one definition of the paper's
    environment, consensus and weak-set properties, for every backend.

    After-the-fact checks ([check_*]) judge a complete trace or history;
    online checks ({!Consensus}, {!Weak_set}) judge one decision or one
    [get] at a time, so the model checker reports a counterexample at the
    transition that commits it. The consensus and weak-set [check_*] are
    folds of the online checks. Nothing here trusts the runner's
    bookkeeping beyond the raw delivery facts. *)

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

(** Online consensus monitor: judges decisions one at a time. *)
module Consensus : sig
  type t

  val create : ?agreement_exempt:int list -> inputs:Anon_kernel.Value.t list -> unit -> t
  (** [agreement_exempt] (default [\[\]]) lists pids outside the agreement
      obligation — churners, whose post-rejoin solo decisions are
      legitimate (see {!check_consensus}). *)

  val observe : t -> pid:int -> value:Anon_kernel.Value.t -> t * violation list
  (** Record one decision. Flags validity (value never proposed) against
      [inputs], agreement against the earliest recorded decision among
      non-exempt pids (exempt deciders are skipped in both directions), and
      irrevocability — a process deciding twice with different values —
      as an agreement violation of the process with itself. *)

  val decided : t -> (int * Anon_kernel.Value.t) list
  (** All decisions observed so far, earliest first. *)
end

val check_decisions :
  ?agreement_exempt:int list ->
  inputs:Anon_kernel.Value.t list ->
  (int * int * Anon_kernel.Value.t) list ->
  violation list
(** Fold {!Consensus.observe} over [(pid, round, value)] decisions in
    order; the validity violations come first, then the agreement ones. *)

val check_consensus :
  ?expect_termination:bool -> Trace.t -> violation list
(** Validity of every decision; agreement and (when [expect_termination],
    default [true]) termination of every correct {e stayer} — processes
    with a churn event are exempt from the latter two, because a rejoiner
    restarting after the stayers halted can legitimately decide alone.
    Validity and agreement are {!check_decisions} over
    [Trace.decisions] with the churners exempt. *)

(** Online weak-set monitor: judges one completed [get] at a time. *)
module Weak_set : sig
  type t

  val create : unit -> t
  val invoke_add : t -> Anon_kernel.Value.t -> t
  val complete_add : t -> Anon_kernel.Value.t -> time:int -> t

  val invoked : t -> Anon_kernel.Value.Set.t
  val completed_values : t -> Anon_kernel.Value.Set.t
  (** The invoked / completed value sets — the permutation-invariant facts
      the model checker folds into its canonical keys (completion {e times}
      are irrelevant to future judgements: any past completion precedes any
      future invocation). *)

  val observe_get :
    t ->
    client:int ->
    correct:bool ->
    invoked_at:int ->
    result:Anon_kernel.Value.Set.t ->
    violation list
  (** Judge one completed [get]. Inclusion: every add completed strictly
      before [invoked_at] must appear in [result] (only enforced for
      correct clients, as in {!check_weak_set}); non-triviality: every
      member of [result] must stem from some invoked add. Call it only
      after recording every add invoked and completed up to the [get]'s
      completion. *)
end

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
    and is enforced for everybody.

    The history is replayed into {!Weak_set} in time order, add events
    before the [get]s judged at the same time ([get_completed]); each
    [get] needs [get_invoked <= get_completed]. Lost adds come first,
    then phantom values, each in the order of the [get]s in [ops]. *)
