(* The benchmark's single process: runs one workload for a given time and
   prints its metrics. See BENCH.md for the workloads, the metrics and how
   they map onto each other.

   main.exe --workload lockstep-ess|rsm-knee|mc-es-n4 --seed N --seconds S
            --trace 0|1 [--revision REV] [--spans FILE]

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
   The exit code is 0 only when every operation was correct. *)

open Perfbench
module W = Workloads

let workloads : (string * (module W.S)) list =
  [
    ("lockstep-ess", (module W.Lockstep));
    ("rsm-knee", (module W.Rsm_knee));
    ("mc-es-n4", (module W.Mc_es));
  ]

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> nan
      in
      find ())

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed metrics =
  let metric (name, value, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float value) unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

let print_info info =
  List.iter (fun (k, v) -> Printf.printf "  %-28s %s\n" k (json_float v)) info

let sum_tallies tallies =
  List.fold_left
    (fun (a, f) (t : W.tally) -> (a + t.attempted, f + t.failed))
    (0, 0) tallies

(* --- end-to-end run (untraced) ------------------------------------------------ *)

(* On the 2-core virtual machine the benchmark was defined on, speed
   changes by up to 1.7x, in stretches from half a second to tens of
   seconds, so a whole run may fall in a slow stretch. Every timed metric
   is therefore given at reference speed: each step and each set-up is
   rescaled by {!Speed}'s reference kernel, timed alongside it. The plain
   wall-clock figures are printed on the info lines. See BENCH.md. *)
let setup_period_s = 2.

type span = { start : float; stop : float; kernel : float }

let end_to_end (module M : W.S) ~seed ~seconds =
  let setups = ref [] in
  let time_setup () =
    let k0 = Speed.spent_s () in
    let start = W.now_s () in
    M.setup ~seed;
    let stop = W.now_s () in
    setups := { start; stop; kernel = Speed.spent_s () -. k0 } :: !setups
  in
  let rss = ref nan in
  let read_rss steps = if steps = M.rss_steps then rss := peak_rss_mb () in
  Speed.start ~jobs:M.jobs;
  let accs, _ =
    W.drive ~period:setup_period_s ~between:time_setup ~after:read_rss (module M) ~seed
      ~seconds
      [| { W.traced = false; jobs = M.jobs } |]
  in
  let speed = Speed.finish () in
  (* Seconds the span's own work would take at reference speed. *)
  let at_reference { start; stop; kernel } =
    Speed.scale speed ~start ~stop *. (stop -. start -. kernel)
  in
  let t = M.tally accs.(0) in
  let steps = Array.of_list (List.rev t.steps) in
  let step_s =
    Array.map
      (fun (s : W.step) -> at_reference { start = s.start_s; stop = s.stop_s; kernel = s.kernel_s })
      steps
  in
  let run_ms =
    Array.mapi (fun i (s : W.step) -> s.step_run_ms *. step_s.(i) /. (s.stop_s -. s.start_s)) steps
  in
  let setup_s = Array.of_list (List.map at_reference !setups) in
  (* A run too short to reach [rss_steps] reads it at the end. *)
  let rss = if Float.is_nan !rss then peak_rss_mb () else !rss in
  let kernel_ms = Array.map (fun k -> k *. 1e3) (Speed.samples speed) in
  print_info
    (M.info accs.(0)
    @ [
        ("wall.ops_per_s", t.ops /. t.elapsed_s);
        ("wall.run_p50_ms", W.median (Array.map (fun (s : W.step) -> s.step_run_ms) steps));
        ( "wall.setup_s",
          W.median (Array.of_list (List.map (fun s -> s.stop -. s.start -. s.kernel) !setups)) );
        ("speed.kernel_p50_ms", W.median kernel_ms);
        ("speed.kernel_p10_ms", W.percentile 10. kernel_ms);
        ("speed.kernel_p90_ms", W.percentile 90. kernel_ms);
        ("speed.samples", float_of_int (Array.length kernel_ms));
        ("speed.kernel_share", Speed.spent_s () /. (t.elapsed_s +. Speed.spent_s ()));
        ("peak_rss_end_mb", peak_rss_mb ());
        ("steps", float_of_int (Array.length steps));
        ("setups", float_of_int (Array.length setup_s));
      ]);
  ( sum_tallies [ t ],
    [
      ("ops_per_s", W.median (Array.mapi (fun i (s : W.step) -> s.step_ops /. step_s.(i)) steps), "1/s");
      ("run_p50_ms", W.median run_ms, "ms");
      ("setup_s", W.median setup_s, "s");
      ("peak_rss_mb", rss, "MB");
    ] )

(* --- traced run ---------------------------------------------------------------- *)

let layer_metrics ~(untraced : W.tally) ~(traced : W.tally) ~info ~report ~majors
    ~task_slowdown =
  let ops = traced.ops in
  let row l = List.assoc l report.Span.rows in
  let ns l = (row l).self_ns /. ops in
  let calls l = float_of_int (row l).calls /. ops in
  let words l = (row l).minor_words /. ops in
  let inclusive_ns l =
    Array.fold_left ( +. ) 0. (Span.durations_ms report l) *. 1e6 /. ops
  in
  let task_ms = Span.durations_ms report Span.Exec_task in
  let busy_ns = Array.fold_left ( +. ) 0. task_ms *. 1e6 in
  let capacity_ns = (row Span.Exec_idle).self_ns +. busy_ns in
  let all_words =
    List.fold_left (fun acc (_, r) -> acc +. r.Span.minor_words) 0. report.Span.rows
  in
  let info name = Option.value (List.assoc_opt name info) ~default:0. in
  let or_zero x = if Float.is_nan x then 0. else x in
  [
    ("ess.compute_ns", ns Span.Ess_compute, "ns/op");
    ("ess.compute_calls", calls Span.Ess_compute, "count/op");
    ("ess.compute_minor_words", words Span.Ess_compute, "words/op");
    ("ess.initialize_ns", ns Span.Ess_initialize, "ns/op");
    ("es.compute_ns", ns Span.Es_compute, "ns/op");
    ("es.compute_calls", calls Span.Es_compute, "count/op");
    ("es.compute_minor_words", words Span.Es_compute, "words/op");
    ("es.initialize_ns", ns Span.Es_initialize, "ns/op");
    ("adversary.plan_ns", ns Span.Adversary_plan, "ns/op");
    ("adversary.plan_calls", calls Span.Adversary_plan, "count/op");
    ("adversary.plan_minor_words", words Span.Adversary_plan, "words/op");
    ("step_core.self_ns", ns Span.Step_core, "ns/op");
    ("step_core.minor_words", words Span.Step_core, "words/op");
    ("step_core.msg_compares", calls Span.Msg_compare, "count/op");
    ("checker.ns", ns Span.Checker, "ns/op");
    ("exec.utilization", (if capacity_ns > 0. then busy_ns /. capacity_ns else 0.), "ratio");
    ("exec.task_p50_ms", or_zero (W.median task_ms), "ms");
    ("exec.task_p99_ms", or_zero (W.percentile 99. task_ms), "ms");
    ("exec.task_slowdown_jobs2", task_slowdown, "ratio");
    ("rsm.self_ns", ns Span.Rsm, "ns/op");
    ("rsm.minor_words", words Span.Rsm, "words/op");
    ("rsm.instances", info "rsm.instances", "count");
    ("rsm.proposals_per_instance", info "rsm.proposals_per_instance", "ratio");
    ("rsm.msgs_per_bundle", info "rsm.msgs_per_bundle", "ratio");
    ("rsm.rounds", info "rsm.rounds", "rounds");
    ("rsm.stalled", info "rsm.stalled", "count");
    ("rsm.throughput_per_round", info "rsm.throughput_per_round", "1/round");
    ("rsm.p50_rounds", info "rsm.p50_rounds", "rounds");
    ("rsm.p99_rounds", info "rsm.p99_rounds", "rounds");
    ("mc.expand_ns", inclusive_ns Span.Mc_expand, "ns/op");
    ("mc.expand_self_ns", ns Span.Mc_expand, "ns/op");
    ("mc.expand_minor_words", words Span.Mc_expand, "words/op");
    ("mc.key_ns", ns Span.Mc_key, "ns/op");
    ("mc.key_calls", calls Span.Mc_key, "count/op");
    ("mc.key_minor_words", words Span.Mc_key, "words/op");
    ("mc.apply_ns", ns Span.Mc_apply, "ns/op");
    ("mc.terminal_ns", ns Span.Mc_terminal, "ns/op");
    ("mc.explore_self_ns", ns Span.Mc_explore, "ns/op");
    ("mc.raw_states", info "mc.raw_states", "count");
    ("mc.canonical_states", info "mc.canonical_states", "count");
    ("mc.dedup_ratio", info "mc.dedup_ratio", "ratio");
    ("mc.frontier_peak", info "mc.frontier_peak", "count");
    ("gc.minor_words_per_op", all_words /. ops, "words/op");
    ("gc.major_collections", float_of_int majors /. ops, "count/op");
    ( "trace.overhead",
      (untraced.ops /. untraced.elapsed_s /. (traced.ops /. traced.elapsed_s)) -. 1.,
      "ratio" );
  ]
  @ List.filter_map
      (fun l ->
        if l = Span.Msg_compare then None
        else Some ("share." ^ Span.name l, Span.share report l, "ratio"))
      Span.all

let print_layers report ~ops =
  Printf.printf "  %-16s %8s %14s %14s %14s\n" "layer" "share" "self ns/op" "calls/op"
    "words/op";
  List.iter
    (fun (l, r) ->
      Printf.printf "  %-16s %7.2f%% %14.1f %14.3f %14.1f\n" (Span.name l)
        (100. *. Span.share report l)
        (r.Span.self_ns /. ops)
        (float_of_int r.Span.calls /. ops)
        (r.Span.minor_words /. ops))
    report.Span.rows;
  Printf.printf "  shares sum to %.6f of %.3f s traced domain-time\n"
    (List.fold_left (fun acc l -> acc +. Span.share report l) 0. Span.all)
    (report.Span.total_ns /. 1e9)

(* Untraced and traced steps alternate at the workload's own jobs. On
   the pool workload the last third of the time alternates untraced steps
   at jobs=2 and jobs=1, for the task slowdown at jobs=2 against the same
   runs on one domain. *)
let traced (module M : W.S) ~seed ~seconds ~spans_out =
  M.setup ~seed;
  let pool = M.jobs > 1 in
  let seconds_traced = if pool then seconds *. 2. /. 3. else seconds in
  Span.reset ();
  let accs, majors =
    W.drive (module M) ~seed ~seconds:seconds_traced
      [| { W.traced = false; jobs = M.jobs }; { traced = true; jobs = M.jobs } |]
  in
  let report = Span.collect () in
  let untraced = M.tally accs.(0) and traced = M.tally accs.(1) in
  let slowdown_accs, _ =
    if pool then
      W.drive (module M) ~seed ~seconds:(seconds -. seconds_traced)
        [| { W.traced = false; jobs = M.jobs }; { traced = false; jobs = 1 } |]
    else ([||], 0)
  in
  let task_slowdown =
    if pool then
      let p50 i = W.median (W.Samples.to_array (M.tally slowdown_accs.(i)).run_ms) in
      p50 0 /. p50 1
    else 0.
  in
  let info = M.info accs.(1) in
  print_info info;
  print_layers report ~ops:traced.ops;
  Option.iter (fun path -> Span.write ~path report) spans_out;
  ( sum_tallies (List.map M.tally (Array.to_list accs @ Array.to_list slowdown_accs)),
    layer_metrics ~untraced ~traced ~info ~report ~majors ~task_slowdown )

(* --- entry point ---------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10. and trace = ref 0 in
  let revision = ref "unknown" and spans_out = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME lockstep-ess | rsm-knee | mc-es-n4");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics or traced per-layer metrics");
      ("--revision", Arg.Set_string revision, "REV source revision to record");
      ("--spans", Arg.String (fun p -> spans_out := Some p), "FILE write the traced spans here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let (module M : W.S) =
    match List.assoc_opt !workload workloads with
    | Some m -> m
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace must be 0 or 1"; exit 2);
  if not (!seconds > 0.) then (prerr_endline "--seconds must be > 0"; exit 2);
  Printf.printf
    "{\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %d, \"jobs\": %d, \"nproc\": %d, \"revision\": %S, \"ocaml\": %S}\n%!"
    !workload !seed (json_float !seconds) !trace M.jobs (Anon_exec.Pool.auto_jobs ())
    !revision Sys.ocaml_version;
  let (attempted, failed), metrics =
    if !trace = 0 then end_to_end (module M) ~seed:!seed ~seconds:!seconds
    else traced (module M) ~seed:!seed ~seconds:!seconds ~spans_out:!spans_out
  in
  let correct = failed = 0 in
  print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
