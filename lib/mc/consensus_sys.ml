open Anon_kernel
module G = Anon_giraf

module type MODEL = sig
  include G.Intf.ALGORITHM

  val state_key : state -> string
  val msg_key : msg -> string
end

type spec = {
  inputs : Value.t list;
  crash : G.Crash.t;
  churn : G.Churn.t;
  env : G.Env.t;
  max_delay : int;
  armed : bool;
}

module Make
    (A : MODEL) (Cfg : sig
      val spec : spec
    end) =
struct
  module Core = G.Step_core.Consensus (A)

  let spec = Cfg.spec
  let n = G.Crash.n spec.crash

  let () =
    if List.length spec.inputs <> n then
      invalid_arg "Consensus_sys.make: inputs/crash size mismatch";
    if G.Churn.n spec.churn <> n then
      invalid_arg "Consensus_sys.make: churn/crash size mismatch";
    List.iter
      (fun (ev : G.Churn.event) ->
        if G.Crash.crash_round spec.crash ev.pid <> None then
          invalid_arg
            (Printf.sprintf "Consensus_sys.make: p%d both crashes and churns" ev.pid))
      (G.Churn.events spec.churn)

  let inputs = Array.of_list spec.inputs

  (* The scheduled crash and churn windows are part of a process's view
     key, so symmetry reduction never merges processes whose futures
     differ. Both are fixed per exploration — render once. *)
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

  let churn_fate_str =
    Array.init n (fun p ->
        match G.Churn.event spec.churn p with
        | None -> ""
        | Some { leave; rejoin; _ } ->
          Printf.sprintf "l%d%s" leave
            (match rejoin with Some r -> Printf.sprintf "j%d" r | None -> ""))

  (* One receiver's share of a transition: the two hash streams of its
     next view, what it decided, and its fate. *)
  type entry = {
    h1 : int;
    h2 : int;
    decision : Value.t option;
    fate : G.Step_core.fate;
  }

  type sys = {
    core : Core.t Lazy.t;
        (** Node = core after the compute phase of iteration [round]. A
            successor whose every receiver projection was already seen at
            its parent is built from the cached entries alone; its core is
            stepped only if the search goes on from it. *)
    inv : G.Checker.Consensus.t;
    key : string Lazy.t;
    pending : int list;  (** Undecided correct stayers. *)
    memo : G.Plan_enum.memo;
        (** Plan-enumeration cache. Shared along the whole search at
            [jobs = 1] (states of one exploration repeat their enumeration
            signature constantly); per-replay at [jobs > 1], where tasks
            must not share tables across domains. *)
  }

  (* One transition, phase-shifted against the runner's loop: deliver the
     round-[k] messages per [plan] and mark the crashers (Dispatch
     semantics, shared with Runner through Step_core), advance to round
     [k+1] (churn transitions, crash latch), then run iteration [k+1]'s
     compute. Returns the stepped copy and each pid's decision. The crash
     RNG is never consumed: Plan_enum scripts every crasher's
     deliveries. *)
  let step core (plan : G.Adversary.plan) =
    let core = Core.copy core in
    let decisions = Array.make n None in
    ignore (Core.deliver core ~plan ~crash_rng:(Rng.make 0) : G.Dispatch.stats);
    Core.begin_round core;
    ignore
      (Core.compute core ~on_decide:(fun ~pid ~round:_ ~value ->
           decisions.(pid) <- Some value)
        : A.msg G.Dispatch.outbound list);
    (core, decisions)

  (* Decisions feed the invariants in pid order — the order [compute]
     takes them in. *)
  let observe inv decisions =
    let inv = ref inv and viols = ref [] in
    for pid = 0 to n - 1 do
      match decisions pid with
      | None -> ()
      | Some value ->
        let inv', vs = G.Checker.Consensus.observe !inv ~pid ~value in
        inv := inv';
        viols := !viols @ vs
    done;
    (!inv, !viols)

  let global inv =
    let decided =
      List.sort_uniq Value.compare
        (List.map snd (G.Checker.Consensus.decided inv))
    in
    String.concat "," (List.map Value.to_string decided)

  let key_of ~round ~global entries =
    let sum1 = ref 0 and sum2 = ref 0 in
    for p = 0 to n - 1 do
      sum1 := !sum1 + entries.(p).h1;
      sum2 := !sum2 + entries.(p).h2
    done;
    Canon.Digest.key_of_sums ~round ~global !sum1 !sum2

  let render_view core p =
    match Core.fate core p with
    | G.Step_core.Crashed -> "X"
    | G.Step_core.Halted -> "H"
    | G.Step_core.Away -> "A|" ^ churn_fate_str.(p)
    | G.Step_core.Live ->
      let fl =
        List.sort
          (fun (a1, s1, (k1 : string)) (a2, s2, k2) ->
            match Int.compare a1 a2 with
            | 0 -> (
              match Int.compare s1 s2 with 0 -> String.compare k1 k2 | c -> c)
            | c -> c)
          (List.map
             (fun (a, sent, m) -> (a, sent, A.msg_key m))
             (Core.inflight core p))
      in
      let b = Buffer.create 64 in
      (match Core.state core p with
      | Some st -> Buffer.add_string b (A.state_key st)
      | None -> ());
      Buffer.add_string b "|m:";
      (match Core.out core p with
      | Some out -> Buffer.add_string b (A.msg_key out)
      | None -> ());
      Buffer.add_char b '|';
      Buffer.add_string b fate_str.(p);
      Buffer.add_string b churn_fate_str.(p);
      if Core.stable core = Some p then Buffer.add_string b "|S";
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

  (* [render_view] fed straight into the digest streams, piece by piece —
     the hot path behind [key] skips the intermediate view string. Must
     mirror [render_view] byte for byte; [key = key_full] on every
     successor of sampled walks (test_step_core) pins the two. *)
  let fill_view core p st =
    match Core.fate core p with
    | G.Step_core.Crashed -> Canon.Digest.feed_char st 'X'
    | G.Step_core.Halted -> Canon.Digest.feed_char st 'H'
    | G.Step_core.Away ->
      Canon.Digest.feed_string st "A|";
      Canon.Digest.feed_string st churn_fate_str.(p)
    | G.Step_core.Live ->
      let fl =
        List.sort
          (fun (a1, s1, (k1 : string)) (a2, s2, k2) ->
            match Int.compare a1 a2 with
            | 0 -> (
              match Int.compare s1 s2 with 0 -> String.compare k1 k2 | c -> c)
            | c -> c)
          (List.map
             (fun (a, sent, m) -> (a, sent, A.msg_key m))
             (Core.inflight core p))
      in
      (match Core.state core p with
      | Some stv -> Canon.Digest.feed_string st (A.state_key stv)
      | None -> ());
      Canon.Digest.feed_string st "|m:";
      (match Core.out core p with
      | Some out -> Canon.Digest.feed_string st (A.msg_key out)
      | None -> ());
      Canon.Digest.feed_char st '|';
      Canon.Digest.feed_string st fate_str.(p);
      Canon.Digest.feed_string st churn_fate_str.(p);
      if Core.stable core = Some p then Canon.Digest.feed_string st "|S";
      List.iter
        (fun (a, sent, mk) ->
          Canon.Digest.feed_string st "|i:";
          Canon.Digest.feed_int st sent;
          Canon.Digest.feed_char st '@';
          Canon.Digest.feed_int st a;
          Canon.Digest.feed_char st '=';
          Canon.Digest.feed_string st mk)
        fl

  let entry_of core decisions p =
    let h1, h2 = Canon.Digest.view_hash (fill_view core p) in
    { h1; h2; decision = decisions.(p); fate = Core.fate core p }

  (* A node whose core is at hand; its key is rendered from every view
     only if asked for (prefix replay never asks). *)
  let full_node ~memo core inv =
    {
      core = Lazy.from_val core;
      inv;
      key =
        lazy
          (key_of ~round:(Core.round core) ~global:(global inv)
             (Array.init n (entry_of core (Array.make n None))));
      pending = Core.undecided_correct_stayers core;
      memo;
    }

  let init () =
    let core =
      Core.create ~inputs ~crash:spec.crash ~churn:spec.churn ~env:spec.env
    in
    Core.begin_round core;
    (* Iteration 1 is [initialize] everywhere — no process can decide. *)
    ignore (Core.compute core : A.msg G.Dispatch.outbound list);
    full_node ~memo:(G.Plan_enum.memo ()) core
      (G.Checker.Consensus.create
         ~agreement_exempt:
           (List.map (fun (ev : G.Churn.event) -> ev.pid)
              (G.Churn.events spec.churn))
         ~inputs:spec.inputs ())

  let apply s plan =
    let core, decisions = step (Lazy.force s.core) plan in
    full_node ~memo:s.memo core (fst (observe s.inv (Array.get decisions)))

  (* What receiver [p]'s next view depends on besides the parent, as a
     table key: per sender, the arrival round of its delivery to [p]
     (clamped to the current round, as Dispatch does; [-1] for none), then
     whether [p] holds the ESS stable source afterwards. Dispatch writes
     only the receiver's own mailbox, [begin_round] ignores the plan, and
     [compute] reads only [p]'s own state and mailbox — so two plans with
     equal projections give [p] the same entry (DESIGN.md §10). Plan_enum
     emits at most one delivery per link. Written into [proj], one row per
     receiver, reused across plans. *)
  let project proj core (plan : G.Adversary.plan) =
    let round = Core.round core in
    (* The stable-source latch of [Step_core.deliver]. *)
    let stable =
      match (spec.env, plan.source) with
      | G.Env.Ess { gst }, Some src when round >= gst -> src
      | ( ( G.Env.Sync | G.Env.Ms | G.Env.Es _ | G.Env.Ess _ | G.Env.Async
          | G.Env.Dynamic _ ),
          _ ) -> (
        match Core.stable core with Some p -> p | None -> -1)
    in
    for p = 0 to n - 1 do
      let row = proj.(p) in
      Array.fill row 0 n (-1);
      row.(n) <- (if p = stable then 1 else 0)
    done;
    List.iter
      (fun (sender, ds) ->
        List.iter
          (fun (d : G.Adversary.delivery) ->
            if d.receiver <> sender then begin
              let row = proj.(d.receiver) in
              assert (row.(sender) < 0);
              row.(sender) <- Int.max d.arrival round
            end)
          ds)
      plan.deliveries

  let absent = { h1 = 0; h2 = 0; decision = None; fate = G.Step_core.Live }

  (* Successors in enumeration order. Per receiver, a table maps each
     projection seen at this parent to its entry. When every receiver's
     projection is in its table the successor is assembled from the
     entries — key from the summed view hashes, violations from the
     decisions — and its core stays unstepped. Otherwise the plan is
     stepped in full and the missing entries are harvested from the
     stepped core, which the successor keeps. [cached = false] steps
     every plan: the reference the differential suite compares against. *)
  let successors ~cached s =
    let core = Lazy.force s.core in
    let round = Core.round core + 1 in
    let pspec =
      {
        G.Plan_enum.env = spec.env;
        stable = Core.stable core;
        max_delay = spec.max_delay;
        crashing = Core.crashing_pids core;
        include_inadmissible = spec.armed;
      }
    in
    (* The marker attached to an armed (inadmissible) plan names the
       obligation the all-late plan breaks in this environment — exactly
       what the offline checker will report for the replayed trace. *)
    let armed_violations (c : G.Adversary.ctx) =
      let round = c.round in
      match spec.env with
      | G.Env.Dynamic { stability; _ } ->
        let window = ((round - 1) / stability) + 1 in
        let correct_senders =
          List.filter (fun p -> List.mem p c.correct) c.senders
        in
        if G.Env.pulse ~stability ~round then
          [
            G.Checker.No_root
              {
                round;
                window;
                senders =
                  List.map
                    (fun p -> (p, List.filter (fun q -> q <> p) c.obligated))
                    correct_senders;
              };
          ]
        else
          List.map
            (fun p ->
              G.Checker.Stability_violation
                {
                  round;
                  window;
                  sender = p;
                  missing = List.filter (fun q -> q <> p) c.obligated;
                })
            correct_senders
      | G.Env.Sync | G.Env.Ms | G.Env.Es _ | G.Env.Ess _ | G.Env.Async ->
        [ G.Checker.No_source { round } ]
    in
    let tables = Array.init n (fun _ -> Hashtbl.create 16) in
    let proj = Array.init n (fun _ -> Array.make (n + 1) (-1)) in
    let entries = Array.make n absent in
    let global0 = global s.inv in
    let c0 = Core.ctx core in
    List.map
      (fun (c : G.Plan_enum.choice) ->
        Array.fill entries 0 n absent;
        if cached then begin
          project proj core c.plan;
          for p = 0 to n - 1 do
            match Hashtbl.find tables.(p) proj.(p) with
            | e -> entries.(p) <- e
            | exception Not_found -> ()
          done
        end;
        let core' =
          if Array.for_all (fun e -> e != absent) entries then
            lazy (fst (step core c.plan))
          else begin
            let core', decisions = step core c.plan in
            for p = 0 to n - 1 do
              if entries.(p) == absent then begin
                let e = entry_of core' decisions p in
                entries.(p) <- e;
                if cached then Hashtbl.add tables.(p) (Array.copy proj.(p)) e
              end
            done;
            Lazy.from_val core'
          end
        in
        let inv, vs = observe s.inv (fun p -> entries.(p).decision) in
        let global = if inv == s.inv then global0 else global inv in
        let s' =
          {
            core = core';
            inv;
            key = Lazy.from_val (key_of ~round ~global entries);
            pending =
              List.filter
                (fun p -> entries.(p).fate <> G.Step_core.Halted)
                s.pending;
            memo = s.memo;
          }
        in
        (c.plan, s', if c.admissible then vs else armed_violations c0 @ vs))
      (G.Plan_enum.enumerate_memo s.memo pspec c0)

  let expand s = successors ~cached:true s
  let expand_full s = successors ~cached:false s
  let key s = Lazy.force s.key

  (* Reference key, rendered from every view of the stepped core — the
     differential test pins [key = key_full] on every successor. *)
  let key_full s =
    let core = Lazy.force s.core in
    Canon.Digest.full_key ~round:(Core.round core) ~global:(global s.inv)
      ~views:(List.init n (render_view core))

  (* Liveness is owed to correct stayers only (cf. Runner/Checker): a
     churner may rejoin after everyone halted and run alone forever. *)
  let terminal s = s.pending = []
  let pending s = s.pending

  (* Pid-indexed rendering for the differential test: fate and state key
     per process, then the decisions recorded so far. *)
  let snapshot s =
    let core = Lazy.force s.core in
    let b = Buffer.create 256 in
    Buffer.add_string b (Printf.sprintf "r%d\n" (Core.round core));
    for p = 0 to n - 1 do
      Buffer.add_string b
        (match Core.fate core p with
        | G.Step_core.Crashed -> Printf.sprintf "p%d X\n" p
        | G.Step_core.Halted -> Printf.sprintf "p%d H\n" p
        | G.Step_core.Away -> Printf.sprintf "p%d A\n" p
        | G.Step_core.Live -> (
          match Core.state core p with
          | Some st -> Printf.sprintf "p%d L %s\n" p (A.state_key st)
          | None -> Printf.sprintf "p%d L ?\n" p))
    done;
    let decided =
      List.sort compare
        (List.map
           (fun (p, v) -> (p, Value.to_string v))
           (G.Checker.Consensus.decided s.inv))
    in
    Buffer.add_string b
      ("decided "
      ^ String.concat ";"
          (List.map (fun (p, v) -> Printf.sprintf "p%d=%s" p v) decided));
    Buffer.contents b
end

let make (module A : MODEL) spec =
  (module Make
            (A)
            (struct
              let spec = spec
            end) : Explore.SYSTEM)

let make_probe (module A : MODEL) spec =
  (module Make
            (A)
            (struct
              let spec = spec
            end) : Explore.SYSTEM_DEBUG)
