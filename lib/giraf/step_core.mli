(** The single per-round stepping core shared by the execution engines and
    the model checker.

    One iteration of Alg. 1 is three phases, each owned here and nowhere
    else:

    - {b begin_round}: churn transitions (a leaver goes absent, a rejoiner
      restarts from scratch with an empty mailbox), then the round's crash
      events are latched against the fates as they stand;
    - {b compute}: iteration [k] consumes every arrival [<= k-1] and runs
      [compute] on round [k-1]'s mailbox (or [initialize] when the process
      has no state), producing the round-[k] broadcast; a consensus
      process is shown only [M_i\[k-1\]] ({!Backend.ready_current}), a
      service also its late arrivals ({!Backend.ready_inbox}); consensus
      deciders halt and send nothing;
    - {b deliver}: the round-[k] messages are dispatched under the
      adversary plan ({!Dispatch} semantics: arrivals clamped to [>= k],
      receivers must be live, a plan entry pins a [Broadcast_subset]
      crasher's partial broadcast, a [Broadcast_all] crasher reaches every
      live non-crashing process timely), the crashers are marked, and the
      ESS stable-source bookkeeping advances.

    {!Runner} and {!Service_runner} drive a core round-by-round with
    observation hooks; [Anon_mc.Consensus_sys] and [Anon_mc.Ws_sys] cut
    the same cycle after the compute phase, [copy] the core to branch, and
    read states through the accessors. The hooks default to no-ops so the
    checker pays nothing for the runner's observability.

    The service core keeps per-process [version] counters that increment
    whenever that process's observable view (state, broadcast, mailbox,
    fate, script, blocked add) changes; [Anon_mc.Ws_sys] uses them to update
    canonical-key digests incrementally instead of re-rendering every
    view.

    {b Pinned adversary stack order.} The plan fed to [deliver] may pass
    through wrapper layers before it arrives here; their order is fixed,
    not a caller choice: base adversary, then the chaos fault layers
    ([Anon_chaos.Fault.wrap]), then topology severing
    ({!Topology.sever}) outermost. Severing must see the final plan (the
    unstable-source injector rewrites the source whose obligated links
    severing protects), and the admissible fault layers only touch
    already-late arrivals — so a severed link reaches [deliver] exactly
    one round late regardless of fault draws. [Anon_chaos.Fault.compose]
    is the canonical constructor for the full stack. *)

type fate = Live | Crashed | Halted | Away

type op_spec = Do_add of Anon_kernel.Value.t | Do_get | Do_add_with of (Anon_kernel.Value.Set.t -> Anon_kernel.Value.t)
(** One client operation of a weak-set workload (see {!Service_runner},
    which re-exports this type). *)

type workload = (int * (int * op_spec) list) list
(** Per pid: [(earliest_round, op)] scripts, in execution order. *)

(** Consensus-style stepping (Alg. 2/3 families): processes may decide
    and halt. *)
module Consensus (A : Intf.ALGORITHM) : sig
  type t

  val create :
    inputs:Anon_kernel.Value.t array ->
    crash:Crash.t ->
    churn:Churn.t ->
    env:Env.t ->
    t
  (** A core at round 0, before the first {!begin_round}. Inputs are read
      at every [initialize] (round 1 and each rejoin). *)

  val copy : t -> t
  (** Independent snapshot: phase calls on the copy never affect the
      original (algorithm states are immutable and shared). *)

  val begin_round : ?on_leave:(pid:int -> unit) -> ?on_rejoin:(pid:int -> unit) -> t -> unit
  (** Advance to the next round: churn transitions, then the crash latch.
      Halted processes ignore churn; a rejoiner's state and mailbox are
      discarded here and rebuilt at the next {!compute}. *)

  val compute :
    ?observe:(pid:int -> round:int -> A.state -> unit) ->
    ?on_decide:(pid:int -> round:int -> value:Anon_kernel.Value.t -> unit) ->
    t ->
    A.msg Dispatch.outbound list
  (** The round's compute phase over every live process in pid order;
      returns the broadcasts (ascending pid). [observe] sees every
      post-compute state (deciders included) labelled with the algorithm
      round [k-1]; [on_decide] fires as the decider halts. *)

  val ctx : t -> Adversary.ctx
  (** The adversary context after {!compute}: senders, obligated and alive
      receivers all coincide — the live processes not crashing this
      round. *)

  val deliver :
    ?on_deliver:(sender:int -> receiver:int -> arrival:int -> unit) ->
    ?on_crash:(pid:int -> unit) ->
    t ->
    plan:Adversary.plan ->
    crash_rng:Anon_kernel.Rng.t ->
    Dispatch.stats
  (** Dispatch the round's broadcasts under [plan], mark the latched
      crashers, and (ESS, past GST) latch the plan's source as the stable
      source. [crash_rng] is consumed only for an {e unscripted}
      [Broadcast_subset] crasher — the model checker's plans always script
      those, so it may pass any generator. *)

  val round : t -> int
  val fate : t -> int -> fate
  val state : t -> int -> A.state option
  val out : t -> int -> A.msg option
  (** The broadcast produced by the last {!compute}, [None] when the
      process sent nothing (halted, crashed, away). *)

  val inflight : t -> int -> (int * int * A.msg) list
  (** Undrained [(arrival, sent, msg)] deliveries, newest first. *)

  val crashing_pids : t -> int list
  val stable : t -> int option
  val undecided_correct_stayers : t -> int list
  (** Liveness is owed to correct stayers only: a churner may rejoin after
      everyone halted and run alone forever. *)

  val correct_stayers_decided : t -> bool
  (** [undecided_correct_stayers t = \[\]], without allocating: the
      per-round stop test of the runners. *)

  val mailbox_pending : t -> int -> int
end

(** Weak-set-style stepping (Alg. 4): no decisions, but a per-round
    client-operation phase between {!Service.deliver} and the next
    {!Service.begin_round}. *)
module Service (S : Intf.SERVICE) : sig
  type t

  val create :
    n:int -> crash:Crash.t -> churn:Churn.t -> env:Env.t -> workload:workload -> t

  val copy : t -> t

  val begin_round :
    ?on_leave:(pid:int -> pending:(Anon_kernel.Value.t * int) option -> unit) ->
    ?on_rejoin:(pid:int -> unit) ->
    t ->
    unit
  (** As for consensus; a leaver's pending add (value, invoked round) is
      handed to [on_leave] for recording as incomplete. *)

  val compute :
    ?observe:(pid:int -> round:int -> S.state -> unit) ->
    ?on_add_complete:(pid:int -> value:Anon_kernel.Value.t -> invoked_round:int -> unit) ->
    t ->
    S.msg Dispatch.outbound list
  (** The compute phase; a pending add completes ([on_add_complete]) the
      moment the BLOCK flag clears, before [observe] sees the state. *)

  val ctx : t -> Adversary.ctx

  val deliver :
    ?on_deliver:(sender:int -> receiver:int -> arrival:int -> unit) ->
    ?on_crash:(pid:int -> unit) ->
    t ->
    plan:Adversary.plan ->
    crash_rng:Anon_kernel.Rng.t ->
    Dispatch.stats

  val ops :
    ?on_get:(pid:int -> result:Anon_kernel.Value.Set.t -> unit) ->
    ?on_add:(pid:int -> value:Anon_kernel.Value.t -> unit) ->
    t ->
    unit
  (** The round-[round] operation phase: one operation per unblocked live
      client in pid order, each starting no earlier than its scripted
      round. Adds set the BLOCK flag; gets are non-blocking. *)

  val round : t -> int
  val fate : t -> int -> fate
  val state : t -> int -> S.state option
  val out : t -> int -> S.msg option
  val inflight : t -> int -> (int * int * S.msg) list
  val version : t -> int -> int
  val script : t -> int -> (int * op_spec) list
  val blocked : t -> int -> (Anon_kernel.Value.t * int) option
  val crashing_pids : t -> int list
  val mailbox_pending : t -> int -> int
end
