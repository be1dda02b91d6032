(* Tests for the GIRAF substrate: crash schedules, mailboxes, adversaries,
   the runner's round/delivery semantics, and the trace checkers. *)

open Anon_kernel
module G = Anon_giraf

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let pids = Alcotest.(check (list int))

(* --- Crash ------------------------------------------------------------------ *)

let ev pid round broadcast = { G.Crash.pid; round; broadcast }

let test_crash_none () =
  let c = G.Crash.none ~n:4 in
  pids "all correct" [ 0; 1; 2; 3 ] (G.Crash.correct c);
  check_int "no failures" 0 (G.Crash.failures c)

let test_crash_of_events () =
  let c = G.Crash.of_events ~n:4 [ ev 1 3 G.Crash.Silent; ev 3 1 G.Crash.Broadcast_all ] in
  pids "correct" [ 0; 2 ] (G.Crash.correct c);
  check_bool "p1 faulty" false (G.Crash.is_correct c 1);
  Alcotest.(check (option int)) "crash round" (Some 3) (G.Crash.crash_round c 1);
  Alcotest.(check (option int)) "no crash" None (G.Crash.crash_round c 0);
  check_int "crashing at 3" 1 (List.length (G.Crash.crashing_at c ~round:3))

let test_crash_validation () =
  Alcotest.check_raises "dup pid" (Invalid_argument "Crash.of_events: duplicate pid")
    (fun () ->
      ignore (G.Crash.of_events ~n:2 [ ev 0 1 G.Crash.Silent; ev 0 2 G.Crash.Silent ]));
  Alcotest.check_raises "pid range" (Invalid_argument "Crash.of_events: pid out of range")
    (fun () -> ignore (G.Crash.of_events ~n:2 [ ev 5 1 G.Crash.Silent ]));
  Alcotest.check_raises "round >= 1" (Invalid_argument "Crash.of_events: round must be >= 1")
    (fun () -> ignore (G.Crash.of_events ~n:2 [ ev 0 0 G.Crash.Silent ]))

let prop_crash_random =
  QCheck.Test.make ~name:"random schedule respects counts and rounds" ~count:100
    QCheck.(pair small_int (int_range 0 8))
    (fun (seed, failures) ->
      let rng = Rng.make seed in
      let c = G.Crash.random ~n:8 ~failures ~max_round:10 rng in
      G.Crash.failures c = failures
      && List.for_all
           (fun (e : G.Crash.event) -> e.round >= 1 && e.round <= 10)
           (G.Crash.events c))

(* --- Mailbox ----------------------------------------------------------------- *)

let make_mailbox () = G.Mailbox.create ~compare:String.compare ()

let test_mailbox_current_dedup () =
  let mb = make_mailbox () in
  G.Mailbox.schedule mb ~arrival:1 ~sent:1 "a";
  G.Mailbox.schedule mb ~arrival:1 ~sent:1 "a";
  G.Mailbox.schedule mb ~arrival:1 ~sent:1 "b";
  let fresh = G.Mailbox.drain mb ~upto:1 in
  check_int "all arrivals reported fresh" 3 (List.length fresh);
  Alcotest.(check (list string)) "current deduped and sorted" [ "a"; "b" ]
    (G.Mailbox.current mb ~round:1)

let test_mailbox_late_messages () =
  let mb = make_mailbox () in
  G.Mailbox.schedule mb ~arrival:3 ~sent:1 "late";
  Alcotest.(check (list string)) "nothing before drain" [] (G.Mailbox.current mb ~round:1);
  let fresh1 = G.Mailbox.drain mb ~upto:2 in
  check_int "not arrived yet" 0 (List.length fresh1);
  let fresh2 = G.Mailbox.drain mb ~upto:3 in
  Alcotest.(check (list (pair int string))) "late tagged with sent round" [ (1, "late") ] fresh2;
  Alcotest.(check (list string)) "merged into its round" [ "late" ]
    (G.Mailbox.current mb ~round:1)

let test_mailbox_drain_once () =
  let mb = make_mailbox () in
  G.Mailbox.schedule mb ~arrival:1 ~sent:1 "x";
  ignore (G.Mailbox.drain mb ~upto:1);
  check_int "second drain empty" 0 (List.length (G.Mailbox.drain mb ~upto:1))

(* --- Adversary ----------------------------------------------------------------- *)

let ctx ~round ~senders ~obligated ~correct ~alive =
  { G.Adversary.round; senders; obligated; correct; alive }

let all_pids = [ 0; 1; 2; 3 ]

let test_adversary_sync () =
  let plan =
    G.Adversary.plan (G.Adversary.sync ())
      (ctx ~round:5 ~senders:all_pids ~obligated:all_pids ~correct:all_pids
         ~alive:all_pids)
      (Rng.make 1)
  in
  check_int "every sender planned" 4 (List.length plan.deliveries);
  List.iter
    (fun (s, ds) ->
      check_int "covers others" 3 (List.length ds);
      List.iter
        (fun (d : G.Adversary.delivery) ->
          check_bool "timely" true (d.arrival = 5);
          check_bool "not self" true (d.receiver <> s))
        ds)
    plan.deliveries

let source_covers (plan : G.Adversary.plan) obligated =
  match plan.source with
  | None -> false
  | Some s ->
    let ds = Option.value ~default:[] (List.assoc_opt s plan.deliveries) in
    List.for_all
      (fun q ->
        q = s
        || List.exists
             (fun (d : G.Adversary.delivery) -> d.receiver = q && d.arrival = 5)
             ds)
      obligated

let test_adversary_ms_source () =
  let adv = G.Adversary.ms ~rotation:G.Adversary.Round_robin () in
  let plan =
    G.Adversary.plan adv
      (ctx ~round:5 ~senders:all_pids ~obligated:all_pids ~correct:all_pids
         ~alive:all_pids)
      (Rng.make 1)
  in
  check_bool "source covers obligated" true (source_covers plan all_pids)

let test_adversary_ms_rotation () =
  let adv = G.Adversary.ms ~rotation:G.Adversary.Round_robin () in
  let src round =
    (G.Adversary.plan adv
       (ctx ~round ~senders:all_pids ~obligated:all_pids ~correct:all_pids
          ~alive:all_pids)
       (Rng.make 1))
      .source
  in
  check_bool "rotates" true (src 1 <> src 2)

let test_adversary_source_is_correct_sender () =
  (* Sources must survive the round: candidates are correct senders. *)
  let adv = G.Adversary.ms ~rotation:G.Adversary.Random_source () in
  for round = 1 to 20 do
    let plan =
      G.Adversary.plan adv
        (ctx ~round ~senders:[ 0; 1; 2 ] ~obligated:[ 0; 1 ] ~correct:[ 0; 1 ]
           ~alive:[ 0; 1; 2 ])
        (Rng.make round)
    in
    match plan.source with
    | Some s -> check_bool "source correct" true (List.mem s [ 0; 1 ])
    | None -> Alcotest.fail "expected a source"
  done

let test_adversary_es_post_gst () =
  let adv = G.Adversary.es ~gst:10 () in
  let plan =
    G.Adversary.plan adv
      (ctx ~round:10 ~senders:all_pids ~obligated:all_pids ~correct:all_pids
         ~alive:all_pids)
      (Rng.make 1)
  in
  List.iter
    (fun (_, ds) ->
      List.iter
        (fun (d : G.Adversary.delivery) -> check_int "all timely post-gst" 10 d.arrival)
        ds)
    plan.deliveries

let test_adversary_blocking_alternates () =
  let adv = G.Adversary.es_blocking ~gst:100 () in
  let src round =
    (G.Adversary.plan adv
       (ctx ~round ~senders:all_pids ~obligated:all_pids ~correct:all_pids
          ~alive:all_pids)
       (Rng.make 1))
      .source
  in
  Alcotest.(check (option int)) "odd source" (Some 0) (src 1);
  Alcotest.(check (option int)) "even source" (Some 1) (src 2)

(* --- Backend: the two readings of Alg. 1 line 10 -------------------------- *)

(* Messages are (key, tag) pairs ordered by key only, so equal messages
   stay distinguishable and the property also pins which duplicate
   survives. Arrivals never precede sends; some entries are late (sent
   before the round) and some still pending (arriving after it). *)
let prop_ready_current_matches_inbox =
  let entry round =
    QCheck.Gen.(
      int_range (max 1 (round - 3)) (round + 1) >>= fun sent ->
      int_range sent (sent + 3) >>= fun arrival ->
      int_bound 3 >>= fun key ->
      int_bound 1_000 >|= fun tag -> (arrival, sent, (key, tag)))
  in
  let gen =
    QCheck.Gen.(
      int_range 1 6 >>= fun round ->
      list_size (int_bound 12) (entry round) >>= fun entries ->
      (* Duplicate some entries outright: one broadcast can reach a
         receiver twice. *)
      bool >|= fun dup -> (round, if dup then entries @ entries else entries))
  in
  let print (round, entries) =
    Printf.sprintf "round %d: %s" round
      (String.concat "; "
         (List.map (fun (a, s, (k, t)) -> Printf.sprintf "%d@%d=%d/%d" s a k t) entries))
  in
  QCheck.Test.make ~name:"ready_current = (current, rest) of ready_inbox" ~count:500
    (QCheck.make ~print gen)
    (fun (round, inflight) ->
      let compare (k1, _) (k2, _) = Int.compare k1 k2 in
      let current, _, rest = G.Backend.ready_inbox ~compare ~round inflight in
      G.Backend.ready_current ~compare ~round inflight = (current, rest))

(* --- Runner: a probe algorithm that records its inboxes --------------------- *)

module Probe = struct
  let name = "probe"

  type msg = int (* the sender's input value: constant per process *)
  type state = { me : Value.t; log : (int * int list) list }

  let msg_compare = Int.compare
  let msg_size _ = 1
  let pp_msg = Format.pp_print_int
  let leader _ = None
  let initialize v = ({ me = v; log = [] }, v)

  (* Decide own value at round 4; the message is always the input value. *)
  let compute st ~round ~inbox:current =
    let st = { st with log = (round, current) :: st.log } in
    if round = 4 then (st, st.me, Some st.me) else (st, st.me, None)
end

module Probe_runner = G.Runner.Make (Probe)

let probe_config ?(inputs = [ 1; 2; 3 ]) ?(crash = G.Crash.none ~n:3)
    ?(adversary = G.Adversary.sync ()) ?(horizon = 20) () =
  G.Runner.default_config ~horizon ~seed:9 ~inputs ~crash adversary

let test_runner_rounds_and_decisions () =
  let out = Probe_runner.run (probe_config ()) in
  check_bool "all decided" true out.all_correct_decided;
  Alcotest.(check (option int)) "decision round" (Some 4) (G.Runner.decision_round out);
  check_int "three decisions" 3 (List.length out.decisions);
  List.iter
    (fun (p, r, v) ->
      check_int "own value" (p + 1) v;
      check_int "at 4" 4 r)
    out.decisions;
  check_int "rounds executed" 5 out.rounds_executed

let test_runner_inbox_contents () =
  let seen = ref [] in
  let observe ~pid ~round st =
    if round >= 1 then seen := (pid, round, st.Probe.log) :: !seen
  in
  ignore (Probe_runner.run ~observe (probe_config ()));
  (* Under sync every round-k inbox holds everybody's (distinct) values. *)
  check_bool "observations recorded" true (!seen <> []);
  List.iter
    (fun (_, round, log) ->
      match List.assoc_opt round log with
      | Some current -> Alcotest.(check (list int)) "full inbox" [ 1; 2; 3 ] current
      | None -> Alcotest.fail "round not logged")
    !seen

let silent_adversary () =
  G.Adversary.scripted ~name:"silent" ~env:G.Env.Async (fun ctx _ ->
      { G.Adversary.source = None;
        deliveries = List.map (fun p -> (p, [])) ctx.senders })

let test_runner_own_message_always_present () =
  (* Even under a fully silent adversary (no deliveries at all), each
     process sees its own message (Alg. 1 line 10). *)
  let ok = ref true in
  let observe ~pid ~round:_ st =
    match st.Probe.log with
    | (_, current) :: _ -> if current <> [ pid + 1 ] then ok := false
    | [] -> ()
  in
  ignore (Probe_runner.run ~observe (probe_config ~adversary:(silent_adversary ()) ()));
  check_bool "own message only" true !ok

let test_runner_crash_stops_process () =
  let crash = G.Crash.of_events ~n:3 [ ev 1 2 G.Crash.Silent ] in
  let out = Probe_runner.run (probe_config ~crash ()) in
  check_bool "correct still decide" true out.all_correct_decided;
  check_bool "p1 did not decide" true
    (not (List.exists (fun (p, _, _) -> p = 1) out.decisions));
  (* p1 sends round 1 normally and round 2 as its (silent) crash-round
     broadcast, then takes no more steps. *)
  let p1_sends =
    List.length
      (List.filter
         (fun (info : G.Trace.round_info) -> List.mem 1 info.senders)
         out.trace.rounds)
  in
  check_int "p1 sent rounds 1 and 2 only" 2 p1_sends;
  check_bool "p1 listed as crashing in round 2" true
    (List.exists
       (fun (info : G.Trace.round_info) -> info.round = 2 && List.mem 1 info.crashing)
       out.trace.rounds)

let test_runner_identical_messages_merge () =
  (* Two processes with the same input send identical messages: receivers
     must see ONE message (anonymity). *)
  let merged = ref true in
  let observe ~pid:_ ~round:_ st =
    match st.Probe.log with
    | (_, current) :: _ ->
      if List.length current <> List.length (List.sort_uniq Int.compare current) then
        merged := false
    | [] -> ()
  in
  let out = Probe_runner.run ~observe (probe_config ~inputs:[ 7; 7; 3 ] ()) in
  check_bool "deduped" true !merged;
  check_bool "decided" true out.all_correct_decided

let test_runner_horizon () =
  let module Never = G.Runner.Make (struct
    include Probe

    let compute st ~round ~inbox =
      let st, m, _ = compute st ~round ~inbox in
      (st, m, None)
  end) in
  let out = Never.run (probe_config ~adversary:(silent_adversary ()) ~horizon:17 ()) in
  check_int "runs to horizon" 17 out.rounds_executed;
  check_bool "nobody decided" true (out.decisions = [])

(* --- Config validation ----------------------------------------------------- *)

let invalid where what = G.Config_error.Invalid_config { G.Config_error.where; what }

let test_runner_config_validation () =
  Alcotest.check_raises "empty inputs"
    (invalid "Runner.default_config" "inputs must be non-empty") (fun () ->
      ignore (G.Runner.default_config ~inputs:[] ~crash:(G.Crash.none ~n:0)
                (G.Adversary.sync ())));
  Alcotest.check_raises "horizon < 1"
    (invalid "Runner.default_config" "horizon must be >= 1 (got 0)") (fun () ->
      ignore (G.Runner.default_config ~horizon:0 ~inputs:[ 1; 2 ]
                ~crash:(G.Crash.none ~n:2) (G.Adversary.sync ())));
  Alcotest.check_raises "crash size mismatch"
    (invalid "Runner.default_config"
       "inputs/crash size mismatch (3 inputs, crash schedule for 2)") (fun () ->
      ignore (G.Runner.default_config ~inputs:[ 1; 2; 3 ] ~crash:(G.Crash.none ~n:2)
                (G.Adversary.sync ())));
  (* [run] re-validates directly constructed configs. *)
  let bad =
    { (probe_config ()) with G.Runner.horizon = -5 }
  in
  Alcotest.check_raises "run validates too"
    (invalid "Runner.run" "horizon must be >= 1 (got -5)") (fun () ->
      ignore (Probe_runner.run bad))

let test_service_runner_config_validation () =
  let module W = G.Service_runner.Make (Anon_consensus.Weak_set_ms) in
  let config n crash horizon =
    {
      G.Service_runner.n;
      crash;
      churn = G.Churn.none ~n;
      adversary = G.Adversary.ms ();
      horizon;
      seed = 1;
    }
  in
  Alcotest.check_raises "n < 1" (invalid "Service_runner.run" "n must be >= 1")
    (fun () -> ignore (W.run (config 0 (G.Crash.none ~n:0) 10) ~workload:[]));
  Alcotest.check_raises "horizon < 1"
    (invalid "Service_runner.run" "horizon must be >= 1 (got 0)") (fun () ->
      ignore (W.run (config 2 (G.Crash.none ~n:2) 0) ~workload:[]));
  Alcotest.check_raises "crash size mismatch"
    (invalid "Service_runner.run"
       "crash schedule size mismatch (n = 3, crash schedule for 2)") (fun () ->
      ignore (W.run (config 3 (G.Crash.none ~n:2) 10) ~workload:[]))

(* --- Env / Trace / Dispatch ----------------------------------------------------- *)

let test_env_pp_and_gst () =
  Alcotest.(check string) "es" "ES(gst=7)" (G.Env.to_string (G.Env.Es { gst = 7 }));
  Alcotest.(check string) "ms" "MS" (G.Env.to_string G.Env.Ms);
  Alcotest.(check (option int)) "sync gst" (Some 1) (G.Env.gst G.Env.Sync);
  Alcotest.(check (option int)) "ms gst" None (G.Env.gst G.Env.Ms);
  check_bool "async needs no source" false (G.Env.requires_source G.Env.Async ~round:3);
  check_bool "ms needs a source" true (G.Env.requires_source G.Env.Ms ~round:3)

let test_trace_accessors () =
  let info =
    {
      G.Trace.round = 2;
      senders = [ 0; 1 ];
      crashing = [];
      source = Some 0;
      timely = [ (0, [ 1 ]) ];
      obligated = [ 0; 1 ];
      decided = [ (1, 9) ];
      msg_sizes = [ (0, 3) ];
    }
  in
  pids "timely_to" [ 1 ] (G.Trace.timely_to info 0);
  pids "timely_to absent" [] (G.Trace.timely_to info 1);
  let t =
    {
      G.Trace.n = 2;
      inputs = [| 9; 9 |];
      crash = G.Crash.none ~n:2;
      churn = G.Churn.none ~n:2;
      env = G.Env.Ms;
      rounds = [ info ];
    }
  in
  Alcotest.(check (list (triple int int int))) "decisions" [ (1, 2, 9) ]
    (G.Trace.decisions t);
  check_int "last round" 2 (G.Trace.last_round t);
  (* Rendering smoke: must not raise and must mention the round. *)
  let s = Format.asprintf "%a" G.Trace.pp t in
  check_bool "pp mentions decisions" true
    (String.length s > 0 && String.contains s '9')

let test_dispatch_crash_modes () =
  let deliveries = ref [] in
  let schedule ~receiver ~arrival ~sent:_ _msg =
    deliveries := (receiver, arrival) :: !deliveries
  in
  let run broadcast =
    deliveries := [];
    let stats =
      G.Dispatch.dispatch ~round:3
        ~outgoing:[ { G.Dispatch.sender = 0; msg = "m" } ]
        ~crashing_events:[ { G.Crash.pid = 0; round = 3; broadcast } ]
        ~eligible:(fun _ -> true)
        ~receivers:[ 0; 1; 2; 3 ]
        ~plan:{ G.Adversary.source = None; deliveries = [] }
        ~crash_rng:(Rng.make 1) ~schedule ()
    in
    (stats, List.filter (fun (r, _) -> r <> 0) !deliveries)
  in
  let _, silent = run G.Crash.Silent in
  check_int "silent reaches nobody" 0 (List.length silent);
  let _, all = run G.Crash.Broadcast_all in
  check_int "broadcast-all reaches everyone else" 3 (List.length all);
  let _, subset = run G.Crash.Broadcast_subset in
  check_bool "subset within others" true (List.length subset <= 3);
  (* Self-delivery always happens regardless of crash mode. *)
  check_bool "self delivery" true
    (List.exists (fun (r, a) -> r = 0 && a = 3) !deliveries)

let test_service_random_workload () =
  let rng = Rng.make 11 in
  let w =
    G.Service_runner.random_workload ~n:6 ~ops_per_client:5 ~max_start:20
      ~value_range:10_000 rng
  in
  check_int "six clients" 6 (List.length w);
  let adds =
    List.concat_map
      (fun (_, ops) ->
        List.filter_map
          (fun (_, op) ->
            match op with
            | G.Service_runner.Do_add v -> Some v
            | G.Service_runner.Do_get | G.Service_runner.Do_add_with _ -> None)
          ops)
      w
  in
  check_int "added values are globally distinct" (List.length adds)
    (List.length (List.sort_uniq Int.compare adds));
  List.iter
    (fun (_, ops) ->
      let starts = List.map fst ops in
      check_bool "scripts sorted by start round" true
        (List.sort Int.compare starts = starts))
    w

(* --- Checker ------------------------------------------------------------------ *)

let base_round ~round ~senders ~obligated ~timely =
  {
    G.Trace.round;
    senders;
    crashing = [];
    source = None;
    timely;
    obligated;
    decided = [];
    msg_sizes = [];
  }

let mk_trace ?(env = G.Env.Ms) ?(crash = G.Crash.none ~n:3) ~rounds () =
  {
    G.Trace.n = 3;
    inputs = [| 1; 2; 3 |];
    crash;
    churn = G.Churn.none ~n:3;
    env;
    rounds;
  }

let test_checker_ms_ok () =
  let r1 =
    base_round ~round:1 ~senders:[ 0; 1; 2 ] ~obligated:[ 0; 1; 2 ]
      ~timely:[ (0, [ 1; 2 ]) ]
  in
  check_int "no violation" 0
    (List.length (G.Checker.check_env (mk_trace ~rounds:[ r1 ] ())))

let test_checker_ms_no_source () =
  let r1 =
    base_round ~round:1 ~senders:[ 0; 1; 2 ] ~obligated:[ 0; 1; 2 ]
      ~timely:[ (0, [ 1 ]); (1, [ 0 ]) ]
  in
  check_int "violation" 1
    (List.length (G.Checker.check_env (mk_trace ~rounds:[ r1 ] ())))

let test_checker_ms_faulty_source_ok () =
  (* A per-round source need not be correct — only present and covering. *)
  let crash = G.Crash.of_events ~n:3 [ ev 0 5 G.Crash.Silent ] in
  let r1 =
    base_round ~round:1 ~senders:[ 0; 1; 2 ] ~obligated:[ 1; 2 ]
      ~timely:[ (0, [ 1; 2 ]) ]
  in
  check_int "faulty source accepted" 0
    (List.length (G.Checker.check_env (mk_trace ~crash ~rounds:[ r1 ] ())))

let test_checker_es_post_gst () =
  let pre =
    base_round ~round:1 ~senders:[ 0; 1; 2 ] ~obligated:[ 0; 1; 2 ]
      ~timely:[ (0, [ 1; 2 ]) ]
  in
  let post_bad =
    base_round ~round:2 ~senders:[ 0; 1; 2 ] ~obligated:[ 0; 1; 2 ]
      ~timely:[ (0, [ 1; 2 ]) ]
  in
  let vs =
    G.Checker.check_env
      (mk_trace ~env:(G.Env.Es { gst = 2 }) ~rounds:[ pre; post_bad ] ())
  in
  (* p1 and p2 are correct senders but not timely to everybody. *)
  check_int "two lagging senders flagged" 2 (List.length vs)

let test_checker_ess_handover () =
  (* The stable source may change only when the previous one halted. *)
  let r k s ~senders =
    base_round ~round:k ~senders ~obligated:senders
      ~timely:[ (s, List.filter (fun q -> q <> s) senders) ]
  in
  let ok =
    [ r 1 0 ~senders:[ 0; 1; 2 ]; r 2 0 ~senders:[ 0; 1; 2 ]; r 3 1 ~senders:[ 1; 2 ] ]
  in
  check_int "handover after halt ok" 0
    (List.length
       (G.Checker.check_env (mk_trace ~env:(G.Env.Ess { gst = 1 }) ~rounds:ok ())));
  let bad = [ r 1 0 ~senders:[ 0; 1; 2 ]; r 2 1 ~senders:[ 0; 1; 2 ] ] in
  check_int "change while alive flagged" 1
    (List.length
       (G.Checker.check_env (mk_trace ~env:(G.Env.Ess { gst = 1 }) ~rounds:bad ())))

(* A source segment ends once {e some} process that covered the whole
   segment halts — any such process qualifies as the segment's stable
   source, so its co-candidates still sending do not pin the segment open.
   The shape of seed 105 run 8355 of the lockstep ESS batch: n=8, gst 10,
   p3 crashes at round 10, p0 and p7 both cover rounds 10-11, p0 halts and
   p2 covers from round 12 on while p7 keeps sending. *)
let ess_n8_trace rounds =
  {
    G.Trace.n = 8;
    inputs = Array.init 8 (fun i -> i + 1);
    crash = G.Crash.of_events ~n:8 [ ev 3 10 G.Crash.Silent ];
    churn = G.Churn.none ~n:8;
    env = G.Env.Ess { gst = 10 };
    rounds;
  }

let ess_n8_round k ~senders ~sources =
  let obligated = List.filter (fun q -> q <> 3) senders in
  base_round ~round:k ~senders ~obligated
    ~timely:
      (List.map (fun s -> (s, List.filter (fun q -> q <> s) obligated)) sources)

let test_checker_ess_co_candidate_halts () =
  let all = List.init 8 Fun.id in
  let after_halt = List.filter (fun q -> q <> 0 && q <> 3) all in
  let rounds =
    [
      ess_n8_round 10 ~senders:all ~sources:[ 0; 7 ];
      ess_n8_round 11 ~senders:(List.filter (fun q -> q <> 3) all) ~sources:[ 0; 7 ];
      ess_n8_round 12 ~senders:after_halt ~sources:[ 2 ];
      ess_n8_round 13 ~senders:after_halt ~sources:[ 2 ];
    ]
  in
  check_int "handover after one co-candidate halts ok" 0
    (List.length (G.Checker.check_env (ess_n8_trace rounds)))

let test_checker_ess_switch_while_sending () =
  let all = List.init 8 Fun.id in
  let live = List.filter (fun q -> q <> 3) all in
  let rounds =
    [
      ess_n8_round 10 ~senders:all ~sources:[ 0; 7 ];
      ess_n8_round 11 ~senders:live ~sources:[ 0; 7 ];
      ess_n8_round 12 ~senders:live ~sources:[ 2 ];
    ]
  in
  Alcotest.(check bool)
    "switch while every candidate sends flagged" true
    (List.exists
       (function G.Checker.Unstable_source _ -> true | _ -> false)
       (G.Checker.check_env (ess_n8_trace rounds)))

let decided_round ~round ~decided =
  { (base_round ~round ~senders:[] ~obligated:[] ~timely:[]) with G.Trace.decided }

let test_checker_consensus () =
  let tr = mk_trace ~rounds:[ decided_round ~round:4 ~decided:[ (0, 1); (1, 2) ] ] () in
  let vs = G.Checker.check_consensus ~expect_termination:false tr in
  check_int "agreement violation" 1 (List.length vs);
  let tr = mk_trace ~rounds:[ decided_round ~round:4 ~decided:[ (0, 99) ] ] () in
  let vs = G.Checker.check_consensus ~expect_termination:false tr in
  check_int "validity violation" 1 (List.length vs);
  let tr = mk_trace ~rounds:[ decided_round ~round:4 ~decided:[ (0, 1) ] ] () in
  let vs = G.Checker.check_consensus ~expect_termination:true tr in
  check_int "termination violation" 1 (List.length vs)

let test_checker_weak_set () =
  let ops =
    [
      G.Checker.Ws_add
        { add_client = 0; add_value = 5; add_invoked = 1; add_completed = Some 3 };
      G.Checker.Ws_get
        { get_client = 1; get_result = Value.Set.empty; get_invoked = 5; get_completed = 5 };
    ]
  in
  check_int "lost add" 1 (List.length (G.Checker.check_weak_set ops));
  check_int "faulty client excused" 0
    (List.length (G.Checker.check_weak_set ~correct:[ 0 ] ops));
  let phantom =
    [
      G.Checker.Ws_get
        {
          get_client = 1;
          get_result = Value.Set.singleton 9;
          get_invoked = 5;
          get_completed = 5;
        };
    ]
  in
  check_int "phantom value" 1 (List.length (G.Checker.check_weak_set phantom))

(* --- Negative checker tests: exact violation constructors -------------------- *)

let test_checker_exact_agreement () =
  (* Hand-built trace with a seeded disagreement: the checker must name the
     exact pair and values, not merely count a violation. *)
  let tr = mk_trace ~rounds:[ decided_round ~round:4 ~decided:[ (0, 1); (1, 2) ] ] () in
  match G.Checker.check_consensus ~expect_termination:false tr with
  | [ G.Checker.Agreement_violation { p1 = 0; v1 = 1; p2 = 1; v2 = 2 } ] -> ()
  | vs ->
    Alcotest.failf "expected Agreement_violation{p0:1 vs p1:2}, got [%s]"
      (String.concat "; "
         (List.map (Format.asprintf "%a" G.Checker.pp_violation) vs))

let test_checker_exact_no_source () =
  (* Round 2 has senders but nobody's timely set covers the obligated
     processes: exactly [No_source { round = 2 }]. *)
  let ok =
    base_round ~round:1 ~senders:[ 0; 1; 2 ] ~obligated:[ 0; 1; 2 ]
      ~timely:[ (1, [ 0; 2 ]) ]
  in
  let sourceless =
    base_round ~round:2 ~senders:[ 0; 1; 2 ] ~obligated:[ 0; 1; 2 ]
      ~timely:[ (0, [ 1 ]); (2, [ 1 ]) ]
  in
  match G.Checker.check_env (mk_trace ~rounds:[ ok; sourceless ] ()) with
  | [ G.Checker.No_source { round = 2 } ] -> ()
  | vs ->
    Alcotest.failf "expected No_source{round=2}, got [%s]"
      (String.concat "; "
         (List.map (Format.asprintf "%a" G.Checker.pp_violation) vs))

let test_checker_exact_lost_add () =
  (* An add completed at time 3 that a later correct get misses must be
     reported as exactly that lost add. *)
  let ops =
    [
      G.Checker.Ws_add
        { add_client = 0; add_value = 7; add_invoked = 1; add_completed = Some 3 };
      G.Checker.Ws_get
        {
          get_client = 2;
          get_result = Value.Set.empty;
          get_invoked = 6;
          get_completed = 8;
        };
    ]
  in
  match G.Checker.check_weak_set ~correct:[ 0; 1; 2 ] ops with
  | [ G.Checker.Weak_set_lost_add { value = 7; get_client = 2; get_invoked = 6 } ] -> ()
  | vs ->
    Alcotest.failf "expected Weak_set_lost_add{7, client 2, at 6}, got [%s]"
      (String.concat "; "
         (List.map (Format.asprintf "%a" G.Checker.pp_violation) vs))

(* --- Folded checks = the whole-trace checks they replaced ------------------- *)

(* Reference agreement + validity: [Checker.check_consensus]'s body before
   it became a fold of [Checker.Consensus]. *)
let ref_consensus_safety (t : G.Trace.t) =
  let decisions = G.Trace.decisions t in
  let proposed = Array.to_list t.inputs in
  let validity =
    List.filter_map
      (fun (pid, _, v) ->
        if List.exists (Value.equal v) proposed then None
        else Some (G.Checker.Validity_violation { pid; value = v }))
      decisions
  in
  let stayer pid = G.Churn.is_stayer t.churn pid in
  let agreement =
    match List.filter (fun (p, _, _) -> stayer p) decisions with
    | [] -> []
    | (p1, _, v1) :: rest ->
      List.filter_map
        (fun (p2, _, v2) ->
          if Value.equal v1 v2 then None
          else Some (G.Checker.Agreement_violation { p1; v1; p2; v2 }))
        rest
  in
  validity @ agreement

(* Reference weak-set axioms: [Checker.check_weak_set]'s body before it
   became a time-ordered replay into [Checker.Weak_set]. *)
let ref_weak_set ?correct ops =
  let adds =
    List.filter_map (function G.Checker.Ws_add a -> Some a | Ws_get _ -> None) ops
  in
  let gets =
    List.filter_map (function G.Checker.Ws_get g -> Some g | Ws_add _ -> None) ops
  in
  let is_correct client =
    match correct with None -> true | Some cs -> List.mem client cs
  in
  let lost_for_get (g : G.Checker.ws_get) =
    List.filter_map
      (fun (a : G.Checker.ws_add) ->
        match a.add_completed with
        | Some c when c < g.get_invoked && not (Value.Set.mem a.add_value g.get_result)
          ->
          Some
            (G.Checker.Weak_set_lost_add
               {
                 value = a.add_value;
                 get_client = g.get_client;
                 get_invoked = g.get_invoked;
               })
        | Some _ | None -> None)
      adds
  in
  let phantom_for_get (g : G.Checker.ws_get) =
    Value.Set.fold
      (fun v acc ->
        let justified =
          List.exists
            (fun (a : G.Checker.ws_add) ->
              Value.equal a.add_value v && a.add_invoked <= g.get_completed)
            adds
        in
        if justified then acc
        else G.Checker.Weak_set_phantom_value { value = v; get_client = g.get_client } :: acc)
      g.get_result []
  in
  List.concat_map lost_for_get
    (List.filter (fun (g : G.Checker.ws_get) -> is_correct g.get_client) gets)
  @ List.concat_map phantom_for_get gets

let pp_violations vs =
  String.concat "; " (List.map (Format.asprintf "%a" G.Checker.pp_violation) vs)

(* Random decision traces: inputs from a small range, deciders distinct (a
   decider halts), values that are sometimes proposed by nobody, and some
   pids churning. The order of the result is pinned too: repro files
   compare violation strings in order. *)
let prop_consensus_fold_matches_reference =
  let gen =
    QCheck.Gen.(
      int_range 1 6 >>= fun n ->
      array_repeat n (int_bound 5) >>= fun inputs ->
      array_repeat n bool >>= fun churns ->
      shuffle_l (List.init n Fun.id) >>= fun order ->
      int_bound n >>= fun k ->
      let deciders = List.filteri (fun i _ -> i < k) order in
      flatten_l
        (List.map
           (fun pid -> map2 (fun round v -> (pid, round, v)) (int_range 1 3) (int_bound 7))
           deciders)
      >|= fun decisions -> (inputs, churns, decisions))
  in
  let trace (inputs, churns, decisions) =
    let n = Array.length inputs in
    let churn =
      G.Churn.of_events ~n
        (List.filter_map
           (fun pid ->
             if churns.(pid) then Some { G.Churn.pid; leave = 1; rejoin = Some 2 }
             else None)
           (List.init n Fun.id))
    in
    let round r =
      {
        (base_round ~round:r ~senders:[] ~obligated:[] ~timely:[]) with
        G.Trace.decided =
          List.filter_map
            (fun (p, r', v) -> if r' = r then Some (p, v) else None)
            decisions;
      }
    in
    {
      G.Trace.n;
      inputs;
      crash = G.Crash.none ~n;
      churn;
      env = G.Env.Ms;
      rounds = List.map round [ 1; 2; 3 ];
    }
  in
  let print ((inputs, churns, decisions) as c) =
    Printf.sprintf "inputs [%s] churners [%s] decisions [%s] -> [%s]"
      (String.concat ";" (Array.to_list (Array.map string_of_int inputs)))
      (String.concat ";"
         (List.filter_map
            (fun p -> if churns.(p) then Some (string_of_int p) else None)
            (List.init (Array.length churns) Fun.id)))
      (String.concat ";"
         (List.map (fun (p, r, v) -> Printf.sprintf "p%d@%d=%d" p r v) decisions))
      (pp_violations
         (G.Checker.check_consensus ~expect_termination:false (trace c)))
  in
  QCheck.Test.make ~name:"check_consensus safety = reference" ~count:1000
    (QCheck.make ~print gen)
    (fun c ->
      let t = trace c in
      G.Checker.check_consensus ~expect_termination:false t = ref_consensus_safety t)

(* Random weak-set histories: timestamps from a small range (so ties
   between invocations, completions and gets are common), adds still
   pending at the end, gets returning values nobody added, and faulty
   clients. Compared as multisets: the replay lists a get's lost adds in
   completion order, the reference in history order. *)
let prop_weak_set_fold_matches_reference =
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun n ->
      let add =
        int_bound (n - 1) >>= fun add_client ->
        int_bound 5 >>= fun add_value ->
        int_bound 8 >>= fun add_invoked ->
        opt (int_bound 3) >|= fun d ->
        G.Checker.Ws_add
          {
            add_client;
            add_value;
            add_invoked;
            add_completed = Option.map (( + ) add_invoked) d;
          }
      in
      let get =
        int_bound (n - 1) >>= fun get_client ->
        list_size (int_bound 4) (int_bound 6) >>= fun result ->
        int_bound 10 >>= fun get_invoked ->
        int_bound 3 >|= fun d ->
        G.Checker.Ws_get
          {
            get_client;
            get_result = Value.set_of_list result;
            get_invoked;
            get_completed = get_invoked + d;
          }
      in
      list_size (int_bound 12) (oneof [ add; get ]) >>= fun ops ->
      opt (list_size (int_bound n) (int_bound (n - 1))) >|= fun correct ->
      (correct, ops))
  in
  let print (correct, ops) =
    let op = function
      | G.Checker.Ws_add a ->
        Printf.sprintf "c%d add %d @%d..%s" a.add_client a.add_value a.add_invoked
          (match a.add_completed with Some c -> string_of_int c | None -> "pending")
      | G.Checker.Ws_get g ->
        Format.asprintf "c%d get %a @%d..%d" g.get_client Value.pp_set g.get_result
          g.get_invoked g.get_completed
    in
    Printf.sprintf "correct %s: %s"
      (match correct with
      | None -> "all"
      | Some cs -> String.concat "," (List.map string_of_int cs))
      (String.concat "; " (List.map op ops))
  in
  QCheck.Test.make ~name:"check_weak_set = reference (multiset)" ~count:1000
    (QCheck.make ~print gen)
    (fun (correct, ops) ->
      List.sort compare (G.Checker.check_weak_set ?correct ops)
      = List.sort compare (ref_weak_set ?correct ops))

(* --- Fail closed: every backend flags an unsafe algorithm ------------------- *)

(* Decides [P.pick input] at its first compute, without reading its inbox. *)
module Decide_at_once (P : sig
  val name : string
  val pick : Value.t -> Value.t
end) =
struct
  let name = P.name

  type msg = int
  type state = Value.t

  let msg_compare = Int.compare
  let msg_size _ = 1
  let pp_msg = Format.pp_print_int
  let leader _ = None
  let initialize v = (v, v)
  let compute v ~round:_ ~inbox:_ = (v, v, Some (P.pick v))
end

module Decide_own = Decide_at_once (struct
  let name = "decide-own"
  let pick = Fun.id
end)

module Decide_unproposed = Decide_at_once (struct
  let name = "decide-unproposed"
  let pick _ = 999
end)

let unsafe_inputs = [ 10; 20; 30; 40 ]
let unsafe_n = List.length unsafe_inputs
let count p vs = List.length (List.filter p vs)
let is_agreement = function G.Checker.Agreement_violation _ -> true | _ -> false
let is_validity = function G.Checker.Validity_violation _ -> true | _ -> false

(* The three backends' verdicts on one algorithm: the lockstep trace
   through [check_consensus], the RSM's (agreement_ok, validity_ok) over
   one instance whose batch holds every input, and the live run's list. *)
let unsafe_verdicts (module A : G.Intf.ALGORITHM) =
  let crash = G.Crash.none ~n:unsafe_n in
  let lockstep =
    let module R = G.Runner.Make (A) in
    let out =
      R.run
        (G.Runner.default_config ~horizon:10 ~seed:1 ~inputs:unsafe_inputs ~crash
           (G.Adversary.sync ()))
    in
    G.Checker.check_consensus ~expect_termination:false out.trace
  in
  let rsm =
    let module M = Anon_rsm.Rsm.Make (A) in
    let out =
      M.run
        {
          Anon_rsm.Rsm.n = unsafe_n;
          window = unsafe_n;
          batch = unsafe_n;
          horizon = 20;
          seed = 1;
          crash;
          churn = G.Churn.none ~n:unsafe_n;
          adversary = (fun _ -> G.Adversary.sync ());
        }
        ~proposals:
          (List.mapi
             (fun id value -> { Anon_rsm.Workload.id; arrival = 1; value })
             unsafe_inputs)
    in
    (out.agreement_ok, out.validity_ok)
  in
  let live =
    let module L = Anon_live.Runner.Make (A) in
    (L.run (Anon_live.Runner.default_config ~inputs:unsafe_inputs ~crash ())).safety
  in
  (lockstep, rsm, live)

let test_fail_closed_agreement () =
  let lockstep, (agreement_ok, validity_ok), live =
    unsafe_verdicts (module Decide_own)
  in
  check_int "lockstep: n-1 agreement violations" (unsafe_n - 1)
    (count is_agreement lockstep);
  check_int "lockstep: no validity violation" 0 (count is_validity lockstep);
  check_bool "rsm: agreement_ok" false agreement_ok;
  check_bool "rsm: validity_ok" true validity_ok;
  check_int
    (Printf.sprintf "live: n-1 agreement violations in [%s]" (pp_violations live))
    (unsafe_n - 1) (count is_agreement live);
  check_int "live: no validity violation" 0 (count is_validity live)

let test_fail_closed_validity () =
  let lockstep, (agreement_ok, validity_ok), live =
    unsafe_verdicts (module Decide_unproposed)
  in
  check_int "lockstep: every decision invalid" unsafe_n (count is_validity lockstep);
  check_int "lockstep: no agreement violation" 0 (count is_agreement lockstep);
  check_bool "rsm: agreement_ok" true agreement_ok;
  check_bool "rsm: validity_ok" false validity_ok;
  check_int
    (Printf.sprintf "live: every decision invalid in [%s]" (pp_violations live))
    unsafe_n (count is_validity live);
  check_int "live: no agreement violation" 0 (count is_agreement live)

(* --- Property: every built-in adversary honours its own Env.t ----------------- *)

(* Feed each adversary 200 rounds of contexts from a random crash schedule
   and validate the emitted plans directly against [Checker.check_env] on
   the reconstructed trace — the adversaries and the checker are
   independent implementations of §2.3, so this cross-checks both. *)
let test_adversaries_satisfy_own_env () =
  let n = 5 in
  let gst = 50 in
  let noises = [ 0.0; 0.3 ] in
  let rotations =
    [ G.Adversary.Round_robin; G.Adversary.Random_source; G.Adversary.Pinned 0 ]
  in
  let adversaries =
    [ G.Adversary.sync (); G.Adversary.es_blocking ~gst ();
      G.Adversary.ess_blocking ~gst () ]
    @ List.concat_map
        (fun noise ->
          G.Adversary.es ~gst ~noise ()
          :: List.concat_map
               (fun rotation ->
                 [ G.Adversary.ms ~rotation ~noise ();
                   G.Adversary.ess ~gst ~rotation ~noise () ])
               rotations)
        noises
  in
  List.iteri
    (fun i adv ->
      let rng = Rng.make (7000 + i) in
      (* Crashes only on pids >= 1, so [Pinned 0] stays a correct source. *)
      let failures = Rng.int_in rng 1 (n - 2) in
      let crash_events =
        Rng.shuffle rng (List.init (n - 1) (fun p -> p + 1))
        |> List.filteri (fun j _ -> j < failures)
        |> List.map (fun pid ->
               { G.Crash.pid; round = Rng.int_in rng 1 150;
                 broadcast = G.Crash.Broadcast_all })
      in
      let crash = G.Crash.of_events ~n crash_events in
      let correct = G.Crash.correct crash in
      let rounds =
        List.init 200 (fun idx ->
            let round = idx + 1 in
            let live =
              List.filter
                (fun p ->
                  match G.Crash.crash_round crash p with
                  | None -> true
                  | Some r -> r > round)
                (List.init n Fun.id)
            in
            let c = ctx ~round ~senders:live ~obligated:live ~correct ~alive:live in
            let plan = G.Adversary.plan adv c rng in
            List.iter
              (fun (_, ds) ->
                List.iter
                  (fun (d : G.Adversary.delivery) ->
                    if d.arrival < round then
                      Alcotest.failf "%s: arrival %d before round %d"
                        (G.Adversary.name adv) d.arrival round)
                  ds)
              plan.deliveries;
            let timely =
              List.map
                (fun (s, ds) ->
                  ( s,
                    List.filter_map
                      (fun (d : G.Adversary.delivery) ->
                        if d.arrival = round then Some d.receiver else None)
                      ds ))
                plan.deliveries
            in
            {
              G.Trace.round;
              senders = live;
              crashing = [];
              source = plan.source;
              timely;
              obligated = live;
              decided = [];
              msg_sizes = [];
            })
      in
      let trace =
        {
          G.Trace.n;
          inputs = Array.make n 1;
          crash;
          churn = G.Churn.none ~n;
          env = G.Adversary.env adv;
          rounds;
        }
      in
      match G.Checker.check_env trace with
      | [] -> ()
      | v :: _ ->
        Alcotest.failf "%s violates its own %s: %s" (G.Adversary.name adv)
          (G.Env.to_string (G.Adversary.env adv))
          (Format.asprintf "%a" G.Checker.pp_violation v))
    adversaries

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "giraf"
    [
      ( "crash",
        [
          Alcotest.test_case "none" `Quick test_crash_none;
          Alcotest.test_case "of_events" `Quick test_crash_of_events;
          Alcotest.test_case "validation" `Quick test_crash_validation;
          qc prop_crash_random;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "current dedup" `Quick test_mailbox_current_dedup;
          Alcotest.test_case "late messages" `Quick test_mailbox_late_messages;
          Alcotest.test_case "drain once" `Quick test_mailbox_drain_once;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "sync" `Quick test_adversary_sync;
          Alcotest.test_case "ms source" `Quick test_adversary_ms_source;
          Alcotest.test_case "ms rotation" `Quick test_adversary_ms_rotation;
          Alcotest.test_case "source is correct sender" `Quick
            test_adversary_source_is_correct_sender;
          Alcotest.test_case "es post gst" `Quick test_adversary_es_post_gst;
          Alcotest.test_case "blocking alternates" `Quick
            test_adversary_blocking_alternates;
        ] );
      ("backend", [ qc prop_ready_current_matches_inbox ]);
      ( "runner",
        [
          Alcotest.test_case "rounds and decisions" `Quick
            test_runner_rounds_and_decisions;
          Alcotest.test_case "inbox contents" `Quick test_runner_inbox_contents;
          Alcotest.test_case "own message" `Quick test_runner_own_message_always_present;
          Alcotest.test_case "crash stops process" `Quick test_runner_crash_stops_process;
          Alcotest.test_case "identical messages merge" `Quick
            test_runner_identical_messages_merge;
          Alcotest.test_case "horizon" `Quick test_runner_horizon;
        ] );
      ( "env-trace-dispatch",
        [
          Alcotest.test_case "env pp/gst" `Quick test_env_pp_and_gst;
          Alcotest.test_case "trace accessors" `Quick test_trace_accessors;
          Alcotest.test_case "dispatch crash modes" `Quick test_dispatch_crash_modes;
          Alcotest.test_case "random workload" `Quick test_service_random_workload;
        ] );
      ( "checker",
        [
          Alcotest.test_case "ms ok" `Quick test_checker_ms_ok;
          Alcotest.test_case "ms no source" `Quick test_checker_ms_no_source;
          Alcotest.test_case "faulty source ok" `Quick test_checker_ms_faulty_source_ok;
          Alcotest.test_case "es post gst" `Quick test_checker_es_post_gst;
          Alcotest.test_case "ess handover" `Quick test_checker_ess_handover;
          Alcotest.test_case "ess co-candidate halts" `Quick
            test_checker_ess_co_candidate_halts;
          Alcotest.test_case "ess switch while sending" `Quick
            test_checker_ess_switch_while_sending;
          Alcotest.test_case "consensus" `Quick test_checker_consensus;
          Alcotest.test_case "weak set" `Quick test_checker_weak_set;
          Alcotest.test_case "exact agreement violation" `Quick
            test_checker_exact_agreement;
          Alcotest.test_case "exact no source" `Quick test_checker_exact_no_source;
          Alcotest.test_case "exact lost add" `Quick test_checker_exact_lost_add;
          qc prop_consensus_fold_matches_reference;
          qc prop_weak_set_fold_matches_reference;
          Alcotest.test_case "fail closed: agreement" `Quick
            test_fail_closed_agreement;
          Alcotest.test_case "fail closed: validity" `Quick
            test_fail_closed_validity;
        ] );
      ( "config",
        [
          Alcotest.test_case "runner validation" `Quick
            test_runner_config_validation;
          Alcotest.test_case "service runner validation" `Quick
            test_service_runner_config_validation;
        ] );
      ( "env-property",
        [
          Alcotest.test_case "adversaries satisfy own env" `Quick
            test_adversaries_satisfy_own_env;
        ] );
    ]
