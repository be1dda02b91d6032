(** Module signatures of the extended GIRAF framework (Alg. 1).

    The framework executes {e anonymous} round-based algorithms: a process
    automaton never observes process identifiers, only the round number and
    the {e set} of messages received — duplicates from distinct senders are
    indistinguishable and merged, exactly as in the paper's model. Simulator
    process ids exist only on the runner side (schedules, traces, metrics).

    Round numbering follows Alg. 1: the [k]-th [end-of-round] runs
    [compute] on round [k-1]'s mailbox (or [initialize] when [k = 1]) and
    broadcasts the round-[k] message. A message sent for round [k] is
    {e timely} towards [q] iff it is in [q]'s round-[k] mailbox when [q]
    computes round [k]. *)

type 'msg inbox = {
  current : 'msg list;
      (** The round-[k] message set [M_i\[k\]] at [compute (k, M_i)] time:
          deduplicated, sorted by the algorithm's message order, and always
          containing the process's own round-[k] message (Alg. 1 line 10). *)
  fresh : (int * 'msg) list;
      (** Every [(sent_round, msg)] arrival since the previous [compute],
          including late messages for earlier rounds and the process's own
          round-[k] message. Needed by algorithms that read
          [M_i\[k'\], 1 ≤ k' ≤ k_i] (Alg. 4 line 15). *)
}
(** What a {!SERVICE} sees at [compute]. A consensus {!ALGORITHM} reads
    only [M_i\[k\]], so it is handed that set alone and its backends never
    assemble [fresh]. *)

(** Consensus-style automaton: proposes a value at initialization and may
    decide (and halt) during a [compute]. *)
module type ALGORITHM = sig
  val name : string

  type state
  type msg

  val msg_compare : msg -> msg -> int
  (** Total order used to deduplicate message sets. Messages equal under
      [msg_compare] are the same message (anonymity). *)

  val msg_size : msg -> int
  (** Abstract payload size (number of values / history entries / counter
      entries carried), for message-growth metrics. *)

  val pp_msg : Format.formatter -> msg -> unit

  val leader : state -> bool option
  (** Pseudo-leader introspection for instrumented runners: [Some flag]
      when the algorithm maintains a self-leader estimate (Alg. 3 line 15),
      [None] when it has no leader concept. Observability only — never
      consulted by the execution semantics. *)

  val initialize : Anon_kernel.Value.t -> state * msg
  (** [initialize v] is the process's first step (Alg. 1 line 7): its
      proposal is [v]; returns the round-1 message. *)

  val compute :
    state -> round:int -> inbox:msg list -> state * msg * Anon_kernel.Value.t option
  (** [compute st ~round ~inbox] is Alg. 1 line 9 for round [round], where
      [inbox] is the round-[round] message set [M_i\[round\]]: deduplicated,
      sorted by [msg_compare], and always containing the process's own
      round-[round] message (Alg. 1 line 10). Late messages for earlier
      rounds are never shown: Alg. 2 and Alg. 3 do not read them. Returns
      the next state, the round-[round+1] message, and [Some v] if the
      process decides [v] now. A deciding process halts: the returned
      message is {e not} broadcast and the process takes no further steps
      ("decide VAL; halt"). *)
end

(** Weak-set-style service automaton: no decision, but client operations
    [add]/[get] invoked between rounds (Alg. 4). *)
module type SERVICE = sig
  val name : string

  type state
  type msg

  val msg_compare : msg -> msg -> int
  val msg_size : msg -> int
  val pp_msg : Format.formatter -> msg -> unit

  val initialize : unit -> state * msg

  val compute : state -> round:int -> inbox:msg inbox -> state * msg
  (** End-of-round transition; completion of a pending [add] is observed
      via [add_pending] flipping to [false]. *)

  val add : state -> Anon_kernel.Value.t -> state
  (** Start an [add]. Precondition: [not (add_pending st)] — the paper's
      automaton serves one blocking [add] at a time per process. *)

  val add_pending : state -> bool
  (** The [BLOCK] flag of Alg. 4: [true] while an [add] is in progress. *)

  val get : state -> Anon_kernel.Value.Set.t
  (** The non-blocking [get] (Alg. 4 lines 5–6). *)
end
