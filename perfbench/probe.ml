(* Wrappers that time each layer from outside, through its public
   functions only. Every wrapper behaves exactly like what it wraps; the
   tests pin that on the deterministic outputs. *)

module G = Anon_giraf

module type LAYERS = sig
  val compute : Span.layer
  val initialize : Span.layer
end

module Algorithm (A : G.Intf.ALGORITHM) (L : LAYERS) :
  G.Intf.ALGORITHM with type state = A.state and type msg = A.msg = struct
  include A

  let initialize v = Span.leaf L.initialize A.initialize v

  let compute st ~round ~inbox =
    Span.leaf L.compute (fun st -> A.compute st ~round ~inbox) st

  (* Called per comparison inside message-set sorting: counted, since
     timing it would cost more than the call. *)
  let msg_compare a b =
    Span.count Span.Msg_compare;
    A.msg_compare a b
end

module Model (A : Anon_mc.Consensus_sys.MODEL) (L : LAYERS) :
  Anon_mc.Consensus_sys.MODEL with type state = A.state and type msg = A.msg =
struct
  include Algorithm (A) (L)

  let state_key = A.state_key
  let msg_key = A.msg_key
end

module Es_layers = struct
  let compute = Span.Es_compute
  let initialize = Span.Es_initialize
end

module Ess_layers = struct
  let compute = Span.Ess_compute
  let initialize = Span.Ess_initialize
end

let adversary a =
  G.Adversary.scripted ~name:(G.Adversary.name a) ~env:(G.Adversary.env a)
    (fun ctx rng -> Span.leaf Span.Adversary_plan (G.Adversary.plan a ctx) rng)

module System (S : Anon_mc.Explore.SYSTEM) : Anon_mc.Explore.SYSTEM with type sys = S.sys =
struct
  include S

  let expand sys = Span.within Span.Mc_expand (fun () -> S.expand sys)
  let apply sys plan = Span.within Span.Mc_apply (fun () -> S.apply sys plan)
  let key sys = Span.leaf Span.Mc_key S.key sys
  let terminal sys = Span.leaf Span.Mc_terminal S.terminal sys
end

let check trace =
  Span.leaf Span.Checker
    (fun trace -> G.Checker.check_env trace @ G.Checker.check_consensus trace)
    trace

(* [Pool.map] whose call is a span occupying as many domains as the pool
   runs, and whose task closures are spans of their own: children of the
   call across domains, with [inst item] as their run id. *)
let pool_map ~jobs ~inst f items =
  let jobs = Anon_exec.Pool.resolve ~jobs () in
  let n = List.length items in
  let weight = if jobs > 1 && n > 1 then min jobs n else 1 in
  Span.within ~weight Span.Exec_idle (fun () ->
      let parent = Span.current () in
      Anon_exec.Pool.map ~jobs
        (fun x -> Span.within ~parent ~inst:(inst x) Span.Exec_task (fun () -> f x))
        items)
