type layer =
  | Bench
  | Exec_idle
  | Exec_task
  | Step_core
  | Checker
  | Rsm
  | Mc_explore
  | Mc_expand
  | Mc_key
  | Mc_apply
  | Mc_terminal
  | Es_compute
  | Es_initialize
  | Ess_compute
  | Ess_initialize
  | Adversary_plan
  | Msg_compare

let all =
  [
    Bench; Exec_idle; Exec_task; Step_core; Checker; Rsm; Mc_explore;
    Mc_expand; Mc_key; Mc_apply; Mc_terminal; Es_compute; Es_initialize;
    Ess_compute; Ess_initialize; Adversary_plan; Msg_compare;
  ]

let name = function
  | Bench -> "bench"
  | Exec_idle -> "exec.idle"
  | Exec_task -> "exec.task"
  | Step_core -> "step_core"
  | Checker -> "checker"
  | Rsm -> "rsm"
  | Mc_explore -> "mc.explore"
  | Mc_expand -> "mc.expand"
  | Mc_key -> "mc.key"
  | Mc_apply -> "mc.apply"
  | Mc_terminal -> "mc.terminal"
  | Es_compute -> "es.compute"
  | Es_initialize -> "es.initialize"
  | Ess_compute -> "ess.compute"
  | Ess_initialize -> "ess.initialize"
  | Adversary_plan -> "adversary.plan"
  | Msg_compare -> "msg_compare"

let index = function
  | Bench -> 0
  | Exec_idle -> 1
  | Exec_task -> 2
  | Step_core -> 3
  | Checker -> 4
  | Rsm -> 5
  | Mc_explore -> 6
  | Mc_expand -> 7
  | Mc_key -> 8
  | Mc_apply -> 9
  | Mc_terminal -> 10
  | Es_compute -> 11
  | Es_initialize -> 12
  | Ess_compute -> 13
  | Ess_initialize -> 14
  | Adversary_plan -> 15
  | Msg_compare -> 16

let n_layers = List.length all
let indices = Array.init n_layers Fun.id
let () = assert (List.mapi (fun i l -> index l = i) all |> List.for_all Fun.id)

let now () = Int64.to_int (Monotonic_clock.now ())
let words () = int_of_float (Gc.minor_words ())

type t = {
  id : int;
  layer : layer;
  parent : int;
  inst : int;
  weight : int;
  dom : int;
  t0 : int;
  mutable t1 : int;
  w0 : int;
  mutable w1 : int;
  agg_n : int array;  (** Leaf aggregates, indexed by layer. *)
  agg_ns : int array;
  agg_w : int array;
}

let layer s = s.layer
let parent s = s.parent
let id s = s.id

type ctx = {
  dom : int;
  sentinel : t;
  mutable top : t;
  mutable spans : t list;
  mutable next : int;
  mutable generation : int;
}

let make_span ~id ~layer ~parent ~inst ~weight ~dom =
  {
    id; layer; parent; inst; weight; dom; t0 = now (); t1 = 0; w0 = words ();
    w1 = 0; agg_n = Array.make n_layers 0; agg_ns = Array.make n_layers 0;
    agg_w = Array.make n_layers 0;
  }

(* Contexts register themselves on their first span of each generation;
   [reset] starts a new generation, which drops the contexts of domains
   that have since ended. *)
let generation = Atomic.make 0
let registry : ctx list ref = ref []
let registry_lock = Mutex.create ()
let domains = Atomic.make 0

let key =
  Domain.DLS.new_key (fun () ->
      let dom = Atomic.fetch_and_add domains 1 in
      let sentinel =
        make_span ~id:(-1) ~layer:Bench ~parent:(-1) ~inst:(-1) ~weight:1 ~dom
      in
      { dom; sentinel; top = sentinel; spans = []; next = 0; generation = -1 })

let reset () =
  Mutex.protect registry_lock (fun () ->
      Atomic.incr generation;
      registry := [])

let current () = (Domain.DLS.get key).top.id

let within ?inst ?parent ?(weight = 1) layer f =
  let c = Domain.DLS.get key in
  let g = Atomic.get generation in
  if c.generation <> g then begin
    Mutex.protect registry_lock (fun () -> registry := c :: !registry);
    c.generation <- g;
    c.spans <- [];
    c.top <- c.sentinel
  end;
  let up = c.top in
  let parent = Option.value parent ~default:up.id in
  let inst = Option.value inst ~default:up.inst in
  let id = (c.dom lsl 32) lor c.next in
  c.next <- c.next + 1;
  let s = make_span ~id ~layer ~parent ~inst ~weight ~dom:c.dom in
  c.top <- s;
  let close () =
    s.t1 <- now ();
    s.w1 <- words ();
    c.top <- up;
    c.spans <- s :: c.spans
  in
  match f () with
  | r ->
    close ();
    r
  | exception e ->
    close ();
    raise e

let leaf layer f x =
  let c = Domain.DLS.get key in
  let t0 = now () in
  let w0 = words () in
  let r = f x in
  let dt = now () - t0 in
  let dw = words () - w0 in
  let s = c.top in
  let i = index layer in
  s.agg_n.(i) <- s.agg_n.(i) + 1;
  s.agg_ns.(i) <- s.agg_ns.(i) + dt;
  s.agg_w.(i) <- s.agg_w.(i) + dw;
  r

let count layer =
  let s = (Domain.DLS.get key).top in
  let i = index layer in
  s.agg_n.(i) <- s.agg_n.(i) + 1

type row = { self_ns : float; calls : int; minor_words : float }
type report = { rows : (layer * row) list; total_ns : float; spans : t list }

let collect () =
  let spans =
    Mutex.protect registry_lock (fun () -> List.concat_map (fun (c : ctx) -> c.spans) !registry)
    |> List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id))
  in
  let dur s = s.t1 - s.t0 in
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let ns = Option.value (Hashtbl.find_opt children s.parent) ~default:0 in
      Hashtbl.replace children s.parent (ns + dur s))
    spans;
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  (* Minor words are counted per domain, so a child on another domain
     (a pool task) is not part of its parent's words. *)
  let child_words = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt by_id s.parent with
      | Some p when p.dom = s.dom ->
        let w = Option.value (Hashtbl.find_opt child_words p.id) ~default:0 in
        Hashtbl.replace child_words p.id (w + (s.w1 - s.w0))
      | Some _ | None -> ())
    spans;
  let self_ns = Array.make n_layers 0 and calls = Array.make n_layers 0 in
  let words = Array.make n_layers 0 in
  let total = ref 0 in
  List.iter
    (fun s ->
      let i = index s.layer in
      let child_ns = Option.value (Hashtbl.find_opt children s.id) ~default:0 in
      let child_w = Option.value (Hashtbl.find_opt child_words s.id) ~default:0 in
      let leaf_ns = Array.fold_left ( + ) 0 s.agg_ns in
      let leaf_w = Array.fold_left ( + ) 0 s.agg_w in
      self_ns.(i) <- self_ns.(i) + (s.weight * dur s) - child_ns - leaf_ns;
      words.(i) <- words.(i) + (s.w1 - s.w0) - child_w - leaf_w;
      calls.(i) <- calls.(i) + 1;
      Array.iter
        (fun j ->
          self_ns.(j) <- self_ns.(j) + s.agg_ns.(j);
          words.(j) <- words.(j) + s.agg_w.(j);
          calls.(j) <- calls.(j) + s.agg_n.(j))
        indices;
      (* Roots count their whole domain-time; a nested span adds only the
         extra domains it occupies beyond its parent's one. *)
      let extra = if Hashtbl.mem by_id s.parent then s.weight - 1 else s.weight in
      total := !total + (extra * dur s))
    spans;
  {
    rows =
      List.map
        (fun l ->
          let i = index l in
          ( l,
            {
              self_ns = float_of_int self_ns.(i);
              calls = calls.(i);
              minor_words = float_of_int words.(i);
            } ))
        all;
    total_ns = float_of_int !total;
    spans;
  }

let row r l = List.assoc l r.rows

let share r l =
  if r.total_ns <= 0. || l = Msg_compare then 0. else (row r l).self_ns /. r.total_ns

let durations_ms r l =
  List.filter (fun s -> s.layer = l) r.spans
  |> List.map (fun s -> float_of_int (s.t1 - s.t0) /. 1e6)
  |> Array.of_list

let write ~path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          let leaves =
            List.filter_map
              (fun l ->
                let i = index l in
                if s.agg_n.(i) = 0 then None
                else
                  Some
                    (Printf.sprintf "%S:{\"calls\":%d,\"ns\":%d,\"minor_words\":%d}"
                       (name l) s.agg_n.(i) s.agg_ns.(i) s.agg_w.(i)))
              all
          in
          Printf.fprintf oc
            "{\"span\":%S,\"id\":%d,\"parent\":%d,\"inst\":%d,\"domain\":%d,\"start_ns\":%d,\"end_ns\":%d,\"weight\":%d,\"leaves\":{%s}}\n"
            (name s.layer) s.id s.parent s.inst s.dom s.t0 s.t1 s.weight
            (String.concat "," leaves))
        r.spans;
      List.iter
        (fun (l, row) ->
          Printf.fprintf oc
            "{\"layer\":%S,\"self_ns\":%.0f,\"calls\":%d,\"minor_words\":%.0f,\"share\":%.6f}\n"
            (name l) row.self_ns row.calls row.minor_words (share r l))
        r.rows)
