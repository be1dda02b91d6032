(** Canonical state keys modulo process permutation.

    Anonymous processes are interchangeable: permuting the process indices
    of a reachable global state yields a reachable global state with a
    permuted behaviour tree, and every property we check (agreement,
    validity, environment admissibility, weak-set axioms) is
    permutation-invariant. The explorer therefore identifies states by the
    {e multiset} of per-process views — a sorted list of view strings —
    rather than the tuple, which is the anonymity symmetry reduction
    (DESIGN.md §10).

    A view must capture everything that influences the process's future
    observable behaviour: local algorithm state, the message it just
    broadcast, undelivered in-flight messages, its crash fate under the
    (fixed, per-exploration) crash schedule, and any per-process
    environment marker (the ESS stable source). Views are built from the
    run-independent [state_key]/[msg_key] serializations of lib/core, so
    keys agree across domains and interner scopes. *)

val key : round:int -> global:string -> views:string list -> string
(** The canonical key: round and permutation-invariant global facts,
    followed by the sorted view multiset. *)

val hash_hex : string -> string
(** 64-bit FNV-1a of a key, in hex — the compact fingerprint used in
    reports. Keys themselves are the visited-set members (no collision
    risk); hashes are for display. *)

(** Incremental multiset digests — the fast path behind {!key}.

    Each process view is hashed under two independent FNV-1a streams and
    the per-view hashes are combined by wrapping 64-bit addition; the pair
    of sums is a commutative function of the view multiset, i.e. exactly
    as permutation-invariant as sorting the views. A per-slot cache keyed
    on {!Anon_giraf.Step_core} version counters means only the processes
    whose views changed since the parent state are re-rendered and
    re-hashed.

    The digest key is 128 bits, not injective like the string {!key}; two
    salted streams push accidental collisions far below the state counts
    any exploration reaches (test_step_core checks digests against full
    recomputation on every sampled node). *)
module Digest : sig
  type t

  val create : n:int -> t
  (** All slots empty (version [-1]); refresh every slot before reading
      {!key}. *)

  val copy : t -> t
  (** Independent snapshot — branch the digest alongside the system. *)

  val refresh : t -> slot:int -> version:int -> (unit -> string) -> unit
  (** [refresh t ~slot ~version render] replaces [slot]'s contribution
      with the hash of [render ()] — skipped entirely when the cached
      version already matches, so [render] must be a pure function of the
      versioned view. *)

  (** A dual-stream hash accumulator fed piecewise, so hot callers can
      hash a view without building the intermediate string. Feeding a
      view's pieces must reproduce the rendered string byte for byte
      ([feed_int] matches [string_of_int]); test_step_core pins
      [key = full_key] to keep the two paths honest. *)
  type stream

  val feed_char : stream -> char -> unit
  val feed_string : stream -> string -> unit
  val feed_int : stream -> int -> unit

  val view_hash : (stream -> unit) -> int * int
  (** [view_hash fill] is the pair of stream hashes of the view [fill]
      feeds into a fresh stream — one process's contribution to the
      multiset sums, for callers that keep their own per-view hashes
      instead of a slot table. *)

  val key : t -> round:int -> global:string -> string
  (** The digest key over the current slot contributions. *)

  val key_of_sums : round:int -> global:string -> int -> int -> string
  (** [key_of_sums ~round ~global sum1 sum2] is the digest key whose slot
      contributions add up to [sum1] and [sum2] (wrapping): summing
      {!view_hash} over a multiset of views and passing the sums gives the
      {!full_key} of those views. *)

  val full_key : round:int -> global:string -> views:string list -> string
  (** Reference implementation: the same key computed from scratch over
      explicit views. [key] after refreshing every slot must equal
      [full_key] on the slots' rendered views — the property
      test_step_core pins. *)
end
