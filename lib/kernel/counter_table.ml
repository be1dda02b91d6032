(* Entries sorted by ascending history id, in two parallel arrays, with
   the largest counter cached. Invariant: every stored count is >= 1;
   absent means 0. *)
type t = { hs : History.t array; cs : int array; max : int }

let empty = { hs = [||]; cs = [||]; max = 0 }

(* The index of id [id] in [hs.(lo .. hi-1)] if present, else [-(i + 1)]
   where [i] is where it would be inserted. *)
let rec search hs id lo hi =
  if lo >= hi then -(lo + 1)
  else
    let mid = (lo + hi) lsr 1 in
    let c = Int.compare hs.(mid).History.id id in
    if c = 0 then mid else if c < 0 then search hs id (mid + 1) hi else search hs id lo mid

let get t h =
  let i = search t.hs h.History.id 0 (Array.length t.hs) in
  if i >= 0 then t.cs.(i) else 0

(* Operation counts, read as per-run deltas by the observability layer.
   Domain-local so parallel simulations never race on them. *)
type ops = { mutable min_merges : int; mutable prefix_bumps : int }

let ops_key : ops Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { min_merges = 0; prefix_bumps = 0 })

let min_merge_ops () = (Domain.DLS.get ops_key).min_merges
let prefix_bump_ops () = (Domain.DLS.get ops_key).prefix_bumps

let count_merge () =
  let ops = Domain.DLS.get ops_key in
  ops.min_merges <- ops.min_merges + 1

let count_bump () =
  let ops = Domain.DLS.get ops_key in
  ops.prefix_bumps <- ops.prefix_bumps + 1

(* Domain-local working table: every update edits it in place and only
   the final table is allocated. [len] is the live prefix of both
   arrays. *)
type scratch = { mutable shs : History.t array; mutable scs : int array; mutable len : int }

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { shs = [||]; scs = [||]; len = 0 })

(* Load [t] into the scratch with room for [extra] more entries. *)
let load t ~extra =
  let s = Domain.DLS.get scratch_key in
  let len = Array.length t.hs in
  if Array.length s.scs < len + extra then begin
    let cap = Int.max (len + extra) (2 * Array.length s.scs) in
    s.shs <- Array.make cap History.empty;
    s.scs <- Array.make cap 0
  end;
  Array.blit t.hs 0 s.shs 0 len;
  Array.blit t.cs 0 s.scs 0 len;
  s.len <- len;
  s

let freeze s =
  let len = s.len in
  if len = 0 then empty
  else begin
    let cs = Array.sub s.scs 0 len in
    let max = ref 0 in
    for i = 0 to len - 1 do
      if cs.(i) > !max then max := cs.(i)
    done;
    { hs = Array.sub s.shs 0 len; cs; max = !max }
  end

let insert s pos h c =
  Array.blit s.shs pos s.shs (pos + 1) (s.len - pos);
  Array.blit s.scs pos s.scs (pos + 1) (s.len - pos);
  s.shs.(pos) <- h;
  s.scs.(pos) <- c;
  s.len <- s.len + 1

let set t h c =
  let s = load t ~extra:1 in
  let i = search s.shs h.History.id 0 s.len in
  if i < 0 then (if c > 0 then insert s (-i - 1) h c)
  else if c > 0 then s.scs.(i) <- c
  else begin
    Array.blit s.shs (i + 1) s.shs i (s.len - i - 1);
    Array.blit s.scs (i + 1) s.scs i (s.len - i - 1);
    s.len <- s.len - 1
  end;
  freeze s

(* Pointwise min with [t] (default 0): both sides are sorted by id, so
   one merge walk keeps the common keys at their smaller count. *)
let meet s t =
  let n = Array.length t.hs in
  let j = ref 0 and out = ref 0 in
  for i = 0 to s.len - 1 do
    let id = s.shs.(i).History.id in
    while !j < n && t.hs.(!j).History.id < id do incr j done;
    if !j < n && t.hs.(!j).History.id = id then begin
      (* Skip the no-op store: a write into the (major-heap) scratch
         goes through the write barrier. *)
      if !out <> i then s.shs.(!out) <- s.shs.(i);
      s.scs.(!out) <- Int.min s.scs.(i) t.cs.(!j);
      incr out
    end
  done;
  s.len <- !out

(* Alg. 3 line 9 on the scratch. A proper prefix of [h] has a smaller id
   than [h] (it was interned first), so the walk down [h]'s parent links
   meets the prefixes in descending id order and one backward pass over
   the sorted entries finds every one of them. *)
let bump s h =
  count_bump ();
  let i = search s.shs h.History.id 0 s.len in
  let best = ref 0 in
  let j = ref (if i >= 0 then i else -i - 2) in
  let p = ref h in
  while !j >= 0 do
    let id = s.shs.(!j).History.id and pid = !p.History.id in
    if id = pid then begin
      if s.scs.(!j) > !best then best := s.scs.(!j);
      decr j
    end
    else if id > pid then decr j
    else p := (match !p.History.node with Snoc (q, _) -> q | Root -> !p)
  done;
  if i >= 0 then s.scs.(i) <- !best + 1 else insert s (-i - 1) h (!best + 1)

(* The scratch starts as [t0] and only ever loses keys or lowers counts,
   so meeting [t0] itself again is a no-op. *)
let rec meet_all s t0 table = function
  | [] -> ()
  | m :: tl ->
    let t = table m in
    if t != t0 then meet s t;
    meet_all s t0 table tl

let rec bump_all s history = function
  | [] -> ()
  | m :: tl ->
    bump s (history m);
    bump_all s history tl

let min_merge_bump ~table ~history ms =
  count_merge ();
  match ms with
  | [] -> empty
  | m0 :: rest ->
    let t0 = table m0 in
    let s = load t0 ~extra:(List.length ms) in
    meet_all s t0 table rest;
    bump_all s history ms;
    freeze s

let min_merge ts =
  count_merge ();
  match ts with
  | [] -> empty
  | t0 :: rest ->
    let s = load t0 ~extra:0 in
    meet_all s t0 Fun.id rest;
    freeze s

let bump_prefix_max t h =
  let s = load t ~extra:1 in
  bump s h;
  freeze s

let is_max t h = get t h >= t.max

let max_binding t =
  let best = ref None in
  Array.iteri
    (fun i h ->
      let c = t.cs.(i) in
      match !best with
      | Some (h', c') when c < c' || (c = c' && History.compare_lexicographic h h' >= 0) -> ()
      | Some _ | None -> best := Some (h, c))
    t.hs;
  !best

let bindings t = List.init (Array.length t.hs) (fun i -> (t.hs.(i), t.cs.(i)))
let cardinal t = Array.length t.hs

let rec compare_from a b i =
  let la = Array.length a.hs and lb = Array.length b.hs in
  if i = la then if i = lb then 0 else -1
  else if i = lb then 1
  else
    let c = History.compare a.hs.(i) b.hs.(i) in
    if c <> 0 then c
    else
      let c = Int.compare a.cs.(i) b.cs.(i) in
      if c <> 0 then c else compare_from a b (i + 1)

let compare a b = if a == b then 0 else compare_from a b 0

let equal a b = compare a b = 0

let pp ppf t =
  let pp_binding ppf (h, c) = Format.fprintf ppf "%a↦%d" History.pp h c in
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp_binding)
    (bindings t)
