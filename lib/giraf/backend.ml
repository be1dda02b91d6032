(* The dispatch-backend seam: the mailbox semantics both backends share.
   See backend.mli. *)

type kind = Lockstep | Live

let kind_name = function Lockstep -> "lockstep" | Live -> "live"

type 'msg arrival = int * int * 'msg

(* Inbox assembly shared by every execution backend: partition the
   in-flight list at [arrival <= round], sort the ready arrivals
   canonically by (arrival, sent, message), and split into the
   deduplicated current-round set and the fresh list. The canonical order
   is what lets the lockstep runner, the model checker and the live
   backend share one reading of Alg. 1 line 10: no algorithm can
   distinguish any other order (messages are sets — anonymity merges
   duplicates). *)
let ready_inbox ~compare ~round inflight =
  (* Same-object messages compare equal without walking the structure — a
     broadcast shares one message value across its receivers, and late
     entries resurface across rounds. *)
  let compare m1 m2 = if m1 == m2 then 0 else compare m1 m2 in
  let ready, rest =
    (* Post-GST steady state: everything in flight is ready. Checking
       first skips the two-list rebuild of [partition]. *)
    if List.for_all (fun (a, _, _) -> a <= round) inflight then (inflight, [])
    else List.partition (fun (a, _, _) -> a <= round) inflight
  in
  let ready =
    List.sort
      (fun (a1, s1, m1) (a2, s2, m2) ->
        match Int.compare a1 a2 with
        | 0 -> ( match Int.compare s1 s2 with 0 -> compare m1 m2 | c -> c)
        | c -> c)
      ready
  in
  (* Arrivals never precede sends (every backend clamps [arrival >=
     sent]), so a ready entry with [sent = round] has [arrival = round]
     too: the current-round messages are one contiguous run of the sorted
     list, already in message order — deduplication is adjacent-uniq, no
     second sort. *)
  let rec uniq_current = function
    | [] -> []
    | (_, s, m) :: tl ->
      if s = round then
        match tl with
        | (_, s', m') :: _ when s' = round && compare m m' = 0 -> uniq_current tl
        | _ -> m :: uniq_current tl
      else uniq_current tl
  in
  let current = uniq_current ready in
  let fresh = List.map (fun (_, sent, m) -> (sent, m)) ready in
  (current, fresh, rest)

(* The consensus reading of the same line: only [M_i[round]] is wanted,
   so the ready late arrivals are dropped unsorted and only the entries
   sent for [round] are sorted. Those are ready exactly when they arrived
   at [round]. They keep their in-flight order into the (stable) sort,
   and the last of each run of equal messages survives, so the result is
   [ready_inbox]'s to the message. *)
let rec all_ready (round : int) = function
  | [] -> true
  | (a, _, _) :: tl -> a <= round && all_ready round tl

let rec sent_at (round : int) = function
  | [] -> []
  | (a, s, m) :: tl -> if s = round && a <= round then m :: sent_at round tl else sent_at round tl

let rec uniq_last compare = function
  | m :: (m' :: _ as tl) ->
    if m == m' || compare m m' = 0 then uniq_last compare tl else m :: uniq_last compare tl
  | l -> l

let ready_current ~compare ~round inflight =
  let rest =
    if all_ready round inflight then [] else List.filter (fun (a, _, _) -> a > round) inflight
  in
  let sorted =
    List.stable_sort (fun m1 m2 -> if m1 == m2 then 0 else compare m1 m2) (sent_at round inflight)
  in
  (uniq_last compare sorted, rest)
