(** The dispatch-backend seam.

    Two kinds of backend execute the same algorithm functors
    ({!Intf.ALGORITHM} / {!Intf.SERVICE}):

    - {b lockstep} — {!Step_core} driven by {!Runner}, {!Service_runner}
      and the model checker: one thread, rounds advance globally, and
      deliveries follow an adversary plan. Fully deterministic; this is
      the Tier-1 and model-checking path, and nothing here changes it.
    - {b live} — [Anon_live]: every process is a concurrent task, messages
      cross real in-process channels through a faulty transport, and round
      advancement is driven by wall-clock timeouts with adaptive backoff
      (synchrony is discovered, not scripted).

    What the backends must agree on {e exactly} — and what this module
    therefore owns — is the mailbox semantics of Alg. 1: how a process's
    undrained arrivals become the inbox of its next [compute]. Keeping
    {!ready_inbox} and its consensus reading {!ready_current} here and
    nowhere else is what makes the zero-fault live-vs-lockstep
    differential suite an equality of decisions rather than a family
    resemblance. *)

type kind = Lockstep | Live

val kind_name : kind -> string

type 'msg arrival = int * int * 'msg
(** [(arrival_round, sent_round, msg)] with [arrival_round >= sent_round].
    The lockstep backend takes arrival rounds from the adversary plan; the
    live backend assigns the local round at which the packet was drained
    from the wire (clamped to [>= sent_round]). *)

val ready_inbox :
  compare:('msg -> 'msg -> int) ->
  round:int ->
  'msg arrival list ->
  'msg list * (int * 'msg) list * 'msg arrival list
(** [ready_inbox ~compare ~round inflight] is [(current, fresh, rest)]:
    the arrivals with [arrival_round <= round] sorted canonically by
    [(arrival, sent, message)], split into the deduplicated round-[round]
    message set [current] (Alg. 1 line 10; adjacent-uniq under [compare]),
    the full [(sent_round, msg)] list [fresh] (late messages included, for
    algorithms that read earlier-round mailboxes), and the still-undrained
    remainder [rest]. The caller guarantees the process's own round-
    [round] message is among the arrivals (self-delivery is implicit and
    always timely). *)

val ready_current :
  compare:('msg -> 'msg -> int) ->
  round:int ->
  'msg arrival list ->
  'msg list * 'msg arrival list
(** [ready_current ~compare ~round inflight] is [(current, rest)] of
    {!ready_inbox}, exactly, without building [fresh]: the inbox of a
    consensus {!Intf.ALGORITHM}. Ready late arrivals are dropped unsorted;
    [rest] keeps its in-flight order. *)
