(** In-memory span recorder for the traced benchmark pass.

    Spans are recorded from outside the program, by wrappers around the
    public functions of each layer ({!Probe}). Every domain records into
    its own context; nothing is shared while the pass runs, and {!collect}
    merges the contexts afterwards.

    Two kinds of call are recorded. A {e span} ({!within}) is kept
    individually with its layer, start, end, parent span and run/instance
    id. A {e leaf} call ({!leaf}, {!count}) is not kept: its call count,
    nanoseconds and minor words are added to the enclosing span's per-layer
    aggregate, so memory grows with the number of spans, not with the
    number of leaf calls. *)

type layer =
  | Bench  (** The benchmark's own code on the main domain: the named remainder. *)
  | Exec_idle
      (** Pool capacity ([jobs] x the wall time of a [Pool.map] call) not
          spent inside a task: domain spawn/join, waiting, imbalance. *)
  | Exec_task  (** The task closure itself, outside the layers it calls. *)
  | Step_core  (** [Runner.run] minus the algorithm and adversary calls. *)
  | Checker  (** [Checker.check_env] + [Checker.check_consensus]. *)
  | Rsm  (** [Load.run] minus the algorithm and adversary calls. *)
  | Mc_explore  (** [Explore.bfs] minus the system calls: visited set, frontier. *)
  | Mc_expand  (** [SYSTEM.expand] minus the algorithm calls. *)
  | Mc_key
  | Mc_apply
  | Mc_terminal
  | Es_compute
  | Es_initialize
  | Ess_compute
  | Ess_initialize
  | Adversary_plan
  | Msg_compare  (** Counted only: never timed, never a share. *)

val all : layer list
val name : layer -> string

type t
(** One recorded span. *)

val layer : t -> layer
val parent : t -> int
(** Id of the enclosing span; [-1] for a root. *)

val id : t -> int

val reset : unit -> unit
(** Drop every recorded span, in every context. Call between passes. *)

val within : ?inst:int -> ?parent:int -> ?weight:int -> layer -> (unit -> 'a) -> 'a
(** [within layer f] records [f ()] as a span of [layer], child of the
    domain's current span (or of [parent], given across domains) and
    current span for the calls [f] makes. [inst] defaults to the parent's.
    [weight] (default 1) is how many domains the span occupies: a
    [Pool.map] call at [jobs] counts [jobs] x its wall time. *)

val current : unit -> int
(** Id of the calling domain's current span. *)

val leaf : layer -> ('a -> 'b) -> 'a -> 'b
(** Time a call that makes no recorded call itself, into the current
    span's aggregate for [layer]. *)

val count : layer -> unit
(** Add one call of [layer] to the current span's aggregate, untimed. *)

(** Per-layer totals over every span recorded since {!reset}. *)
type row = { self_ns : float; calls : int; minor_words : float }

type report = {
  rows : (layer * row) list;  (** Every layer of {!all}, in order. *)
  total_ns : float;
      (** Domain-time of the roots: their wall time, where each [Pool.map]
          span counts [weight] x its own. Self times sum to it exactly. *)
  spans : t list;  (** Every recorded span, start order. *)
}

val collect : unit -> report

val share : report -> layer -> float
(** [self_ns / total_ns]. The shares of every layer sum to 1. *)

val durations_ms : report -> layer -> float array
(** Wall time of each recorded span of [layer], in milliseconds. *)

val write : path:string -> report -> unit
(** Write the spans (one JSON object a line: name, id, parent, inst,
    start and end ns, leaf aggregates) and the layer table. *)
