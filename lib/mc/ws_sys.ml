open Anon_kernel
module G = Anon_giraf
module S = Anon_consensus.Weak_set_ms

type spec = {
  n : int;
  crash : G.Crash.t;
  env : G.Env.t;
  max_delay : int;
  armed : bool;
  ops_per_client : int;
}

module Make (Cfg : sig
  val spec : spec
end) =
struct
  module Core = G.Step_core.Service (S)

  let spec = Cfg.spec
  let n = spec.n

  let () =
    if G.Crash.n spec.crash <> n then
      invalid_arg "Ws_sys.make: n/crash size mismatch"

  let workload =
    Anon_chaos.Scenario.mc_workload ~n ~ops_per_client:spec.ops_per_client

  let fate_str =
    Array.init n (fun p ->
        match G.Crash.crash_round spec.crash p with
        | None -> ""
        | Some r ->
          let kind =
            match
              List.find_opt
                (fun (e : G.Crash.event) -> e.pid = p)
                (G.Crash.events spec.crash)
            with
            | Some { broadcast = G.Crash.Silent; _ } -> 's'
            | Some { broadcast = G.Crash.Broadcast_all; _ } -> 'a'
            | Some { broadcast = G.Crash.Broadcast_subset; _ } | None -> 'b'
          in
          Printf.sprintf "c%d%c" r kind)

  type sys = {
    core : Core.t;  (** Node = core after the compute phase of iteration [round]. *)
    inv : G.Checker.Weak_set.t;
    digest : Canon.Digest.t;
    memo : G.Plan_enum.memo;  (** See {!Consensus_sys}. *)
  }

  let init () =
    let core =
      Core.create ~n ~crash:spec.crash ~churn:(G.Churn.none ~n) ~env:spec.env
        ~workload
    in
    Core.begin_round core;
    ignore (Core.compute core : S.msg G.Dispatch.outbound list);
    {
      core;
      inv = G.Checker.Weak_set.create ();
      digest = Canon.Digest.create ~n;
      memo = G.Plan_enum.memo ();
    }

  (* One transition: round-[k] deliveries per plan and crasher marking
     (shared Step_core/Dispatch semantics), the round-[k] operation phase
     (op_time = 2k + 1; adds invoked as the phase runs, gets judged after
     every invocation of the phase is recorded), then round [k+1]'s
     compute, completing adds whose BLOCK flag cleared at
     compute_time = 2(k+1). *)
  let step s (plan : G.Adversary.plan) =
    let core = Core.copy s.core in
    ignore (Core.deliver core ~plan ~crash_rng:(Rng.make 0) : G.Dispatch.stats);
    let k = Core.round core in
    let inv = ref s.inv in
    let gets = ref [] in
    Core.ops core
      ~on_get:(fun ~pid ~result -> gets := (pid, result) :: !gets)
      ~on_add:(fun ~pid:_ ~value ->
        inv := G.Checker.Weak_set.invoke_add !inv value);
    let op_time = (2 * k) + 1 in
    let viols =
      List.concat_map
        (fun (p, result) ->
          G.Checker.Weak_set.observe_get !inv ~client:p
            ~correct:(G.Crash.is_correct spec.crash p)
            ~invoked_at:op_time ~result)
        (List.rev !gets)
    in
    Core.begin_round core;
    ignore
      (Core.compute core ~on_add_complete:(fun ~pid:_ ~value ~invoked_round:_ ->
           inv := G.Checker.Weak_set.complete_add !inv value ~time:(2 * (k + 1)))
        : S.msg G.Dispatch.outbound list);
    ( { core; inv = !inv; digest = Canon.Digest.copy s.digest; memo = s.memo },
      viols )

  let apply s plan = fst (step s plan)
  let ctx s = Core.ctx s.core

  let expand s =
    let pspec =
      {
        G.Plan_enum.env = spec.env;
        (* The weak-set explorations never latch an ESS stable source (the
           service scenarios run the simpler environments); keep the
           enumeration unconstrained as before the Step_core refactor. *)
        stable = None;
        max_delay = spec.max_delay;
        crashing = Core.crashing_pids s.core;
        include_inadmissible = spec.armed;
      }
    in
    let round = Core.round s.core in
    List.map
      (fun (c : G.Plan_enum.choice) ->
        let s', vs = step s c.plan in
        let vs =
          if c.admissible then vs else G.Checker.No_source { round } :: vs
        in
        (c.plan, s', vs))
      (G.Plan_enum.enumerate_memo s.memo pspec (ctx s))

  let pp_op buf (start, op) =
    Buffer.add_string buf
      (match op with
      | G.Step_core.Do_get -> Printf.sprintf "%dG" start
      | G.Step_core.Do_add v -> Printf.sprintf "%dA%s" start (Value.to_string v)
      | G.Step_core.Do_add_with _ -> Printf.sprintf "%dF" start)

  let render_view core p =
    match Core.fate core p with
    | G.Step_core.Crashed -> "X"
    | G.Step_core.Halted | G.Step_core.Away -> "?"  (* unreachable: no churn, no halting *)
    | G.Step_core.Live ->
      let fl =
        List.sort
          (fun (a1, s1, (k1 : string)) (a2, s2, k2) ->
            match Int.compare a1 a2 with
            | 0 -> (
              match Int.compare s1 s2 with 0 -> String.compare k1 k2 | c -> c)
            | c -> c)
          (List.map
             (fun (a, sent, m) -> (a, sent, S.msg_key m))
             (Core.inflight core p))
      in
      let b = Buffer.create 64 in
      (match Core.state core p with
      | Some st -> Buffer.add_string b (S.state_key st)
      | None -> ());
      Buffer.add_string b "|m:";
      (match Core.out core p with
      | Some out -> Buffer.add_string b (S.msg_key out)
      | None -> ());
      Buffer.add_char b '|';
      Buffer.add_string b fate_str.(p);
      (match Core.blocked core p with
      | Some (v, _) ->
        Buffer.add_string b "|b:";
        Buffer.add_string b (Value.to_string v)
      | None -> ());
      Buffer.add_string b "|w:";
      List.iter (fun o -> pp_op b o) (Core.script core p);
      List.iter
        (fun (a, sent, mk) ->
          Buffer.add_string b "|i:";
          Buffer.add_string b (string_of_int sent);
          Buffer.add_char b '@';
          Buffer.add_string b (string_of_int a);
          Buffer.add_char b '=';
          Buffer.add_string b mk)
        fl;
      Buffer.contents b

  let set_str set =
    String.concat "," (List.map Value.to_string (Value.Set.elements set))

  let global s =
    Printf.sprintf "inv:%s/comp:%s"
      (set_str (G.Checker.Weak_set.invoked s.inv))
      (set_str (G.Checker.Weak_set.completed_values s.inv))

  let key s =
    for p = 0 to n - 1 do
      Canon.Digest.refresh s.digest ~slot:p ~version:(Core.version s.core p)
        (fun () -> render_view s.core p)
    done;
    Canon.Digest.key s.digest ~round:(Core.round s.core) ~global:(global s)

  let key_full s =
    Canon.Digest.full_key ~round:(Core.round s.core) ~global:(global s)
      ~views:(List.init n (render_view s.core))

  (* Every successor is already stepped in full. *)
  let expand_full = expand

  (* The explored workload is finite: once every live client's script is
     drained and no add is blocked, no transition can complete another
     operation, so no future get exists to judge — the branch is closed. *)
  let terminal s =
    let closed = ref true in
    for p = 0 to n - 1 do
      if
        Core.fate s.core p = G.Step_core.Live
        && (Core.script s.core p <> [] || Core.blocked s.core p <> None)
      then closed := false
    done;
    !closed

  let pending s =
    List.filter
      (fun p ->
        Core.fate s.core p = G.Step_core.Live && Core.blocked s.core p <> None)
      (List.init n Fun.id)

  (* Pid-indexed rendering for the differential test: fate, state key,
     blocked add and remaining script per process, then the invoked /
     completed add sets. *)
  let snapshot s =
    let b = Buffer.create 256 in
    Buffer.add_string b (Printf.sprintf "r%d\n" (Core.round s.core));
    for p = 0 to n - 1 do
      match Core.fate s.core p with
      | G.Step_core.Crashed -> Buffer.add_string b (Printf.sprintf "p%d X\n" p)
      | G.Step_core.Halted | G.Step_core.Away ->
        Buffer.add_string b (Printf.sprintf "p%d ?\n" p)
      | G.Step_core.Live ->
        let sk =
          match Core.state s.core p with Some st -> S.state_key st | None -> "?"
        in
        Buffer.add_string b (Printf.sprintf "p%d L %s b:" p sk);
        Buffer.add_string b
          (match Core.blocked s.core p with
          | Some (v, _) -> Value.to_string v
          | None -> "-");
        Buffer.add_string b " w:";
        List.iter (fun o -> pp_op b o) (Core.script s.core p);
        Buffer.add_char b '\n'
    done;
    Buffer.add_string b (global s);
    Buffer.contents b
end

let make spec =
  (module Make (struct
    let spec = spec
  end) : Explore.SYSTEM)

let make_probe spec =
  (module Make (struct
    let spec = spec
  end) : Explore.SYSTEM_DEBUG)
