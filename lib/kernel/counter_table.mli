(** History counter tables (the [C] variable of Alg. 3).

    Conceptually [C] maps {e every} history to a natural number, defaulting
    to 0; only non-zero entries are stored ("no memory is allocated for
    histories it has not yet heard of"). The two operations the algorithm
    performs each round are:

    - line 8: pointwise [min] over all received tables (with default 0 this
      keeps exactly the keys present in {e all} tables), and
    - line 9: [C\[m.HISTORY\] := 1 + max {C\[H\] | H prefix of m.HISTORY}].

    Tables travel inside messages, so they support structural comparison for
    message-set deduplication.

    A table is an immutable array of its non-zero entries sorted by history
    id, with its largest counter cached: [get] is a binary search and
    [is_max] one lookup. {!min_merge_bump} runs both lines of a round in a
    domain-local scratch buffer and allocates only the resulting table. *)

type t

val empty : t

val get : t -> History.t -> int
(** Counter of a history, defaulting to 0. *)

val set : t -> History.t -> int -> t
(** [set t h c] stores [c]; storing 0 removes the entry. *)

val min_merge : t list -> t
(** Pointwise minimum with default 0 of a list of tables: a key survives
    only if present (non-zero) in every table, with the minimum value.
    [min_merge []] is [empty]. *)

val bump_prefix_max : t -> History.t -> t
(** Alg. 3 line 9: [C\[h\] := 1 + max {C\[H\] | H prefix of h}] (the max is
    at least 0, over the default). *)

val min_merge_bump : table:('m -> t) -> history:('m -> History.t) -> 'm list -> t
(** Alg. 3 lines 8–9 over one round's received messages [ms]: equal,
    binding for binding, to
    [List.fold_left bump_prefix_max (min_merge (List.map table ms))
    (List.map history ms)], so the bumps follow [ms]'s order. Counts one
    [min_merge] and [List.length ms] prefix bumps. [min_merge_bump \[\]]
    is [empty]. [table] and [history] are plain projections: they must
    not call back into this module, whose scratch buffer is in use. *)

val is_max : t -> History.t -> bool
(** Alg. 3 leader test: [∀H, C\[h\] ≥ C\[H\]] — whether [h]'s counter ties
    the table's maximum (trivially true on an all-zero table). *)

val max_binding : t -> (History.t * int) option
(** Some entry of maximal counter, [None] if the table is all-zero. Ties
    are broken by lexicographic history order so the result is
    deterministic. *)

val min_merge_ops : unit -> int
(** Domain-local count of line-8 merges ([min_merge] and
    [min_merge_bump] calls). Monotone within a domain; observability
    samples it before/after a run for deltas. *)

val prefix_bump_ops : unit -> int
(** Domain-local count of line-9 bumps ([bump_prefix_max] calls, and one
    per message of [min_merge_bump]). *)

val bindings : t -> (History.t * int) list
(** Entries in ascending history-id order. *)

val cardinal : t -> int

val compare : t -> t -> int
(** Lexicographic over {!bindings} (history id, then count); a proper
    prefix sorts first. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
