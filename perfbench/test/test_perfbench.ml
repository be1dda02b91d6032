(* The benchmark's own tests: its wrappers change nothing the program
   computes, its pool workload does not depend on the job count, its
   traced layer shares add up to the traced time, and its rescaling to
   reference speed gives each interval its own host speed. *)

open Perfbench
module W = Workloads

let seed = 7

let lockstep_wrapped_identical () =
  let plain = W.Lockstep.outputs ~traced:false ~jobs:1 ~seed ~batches:1 in
  let traced = W.Lockstep.outputs ~traced:true ~jobs:1 ~seed ~batches:1 in
  Alcotest.(check int) "runs" W.Lockstep.batch (List.length plain);
  Alcotest.(check bool) "decisions and round metrics" true (plain = traced);
  Alcotest.(check bool) "every run decided, no violation" true
    (List.for_all (fun (r : W.Lockstep.run) -> r.all_decided && r.violations = []) plain)

let rsm_wrapped_identical () =
  let plain = W.Rsm_knee.outputs ~traced:false ~proposals:200 ~seed 0 in
  let traced = W.Rsm_knee.outputs ~traced:true ~proposals:200 ~seed 0 in
  Alcotest.(check string) "load report" plain traced

let mc_wrapped_identical () =
  let explore traced = W.Mc_es.explore ~n:3 ~gst:3 ~traced ~seed 0 in
  let plain = explore false and traced = explore true in
  Alcotest.(check bool) "verified" true
    (plain.violation = None && plain.stats.bound_branches = 0);
  Alcotest.(check int) "raw states" plain.stats.raw_states traced.stats.raw_states;
  Alcotest.(check int) "canonical states" plain.stats.canonical_states
    traced.stats.canonical_states;
  Alcotest.(check bool) "stats" true (plain.stats = traced.stats)

let lockstep_jobs_identical () =
  let at jobs = W.Lockstep.outputs ~traced:false ~jobs ~seed ~batches:2 in
  Alcotest.(check bool) "jobs=1 = jobs=2" true (at 1 = at 2)

(* A short traced pass per workload: every span but the step roots has
   a recorded parent, shares are non-negative and sum to 1, and the
   layers' self times sum to the roots' domain-time. *)
let shares_sum_to_one pass () =
  Span.reset ();
  pass ();
  let report = Span.collect () in
  let ids = List.map Span.id report.spans in
  List.iter
    (fun s ->
      if not (List.mem (Span.parent s) ids) then
        Alcotest.(check string) "only step roots lack a parent" "bench" (Span.name (Span.layer s)))
    report.spans;
  let total = List.fold_left (fun acc l -> acc +. Span.share report l) 0. Span.all in
  Alcotest.(check bool) "traced something" true (report.total_ns > 0.);
  Alcotest.(check (float 1e-9)) "shares sum to 1" 1. total;
  List.iter
    (fun l ->
      Alcotest.(check bool) (Span.name l ^ " share >= 0") true (Span.share report l >= 0.))
    Span.all;
  let self = List.fold_left (fun acc (_, r) -> acc +. r.Span.self_ns) 0. report.rows in
  Alcotest.(check (float 0.5)) "self times sum to domain-time" report.total_ns self

(* One step of the workload, through the benchmark's own step driver. *)
let one_step (module M : W.S) () =
  ignore (W.drive (module M) ~seed ~seconds:0. [| { W.traced = true; jobs = M.jobs } |])

let mc_n3 () =
  Span.within Span.Bench (fun () -> ignore (W.Mc_es.explore ~n:3 ~gst:3 ~traced:true ~seed 0))

(* Rescaling to reference speed: a host twice as slow as the reference
   halves every duration measured on it, and an interval across a change
   of speed gets each part's own factor. *)
let speed_scale () =
  let k = Speed.reference_kernel_s in
  let p = Speed.of_samples (List.init 12 (fun i -> (float_of_int i, if i < 6 then k else 2. *. k))) in
  let check msg expected start stop =
    Alcotest.(check (float 1e-12)) msg expected (Speed.scale p ~start ~stop)
  in
  check "reference speed" 1. 0. 5.5;
  check "half speed" 0.5 5.5 11.;
  check "across the change" 0.75 4.5 6.5;
  check "before the first sample" 1. (-3.) (-1.);
  check "after the last sample" 0.5 20. 30.;
  check "an instant" 0.5 7. 7.

let () =
  Alcotest.run "perfbench"
    [
      ( "wrapped = unwrapped",
        [
          Alcotest.test_case "lockstep-ess runs" `Quick lockstep_wrapped_identical;
          Alcotest.test_case "rsm-knee load report" `Quick rsm_wrapped_identical;
          Alcotest.test_case "es model-check counts" `Quick mc_wrapped_identical;
        ] );
      ("jobs", [ Alcotest.test_case "lockstep-ess jobs=1 = jobs=2" `Quick lockstep_jobs_identical ]);
      ("speed", [ Alcotest.test_case "rescaling to reference speed" `Quick speed_scale ]);
      ( "traced shares",
        [
          Alcotest.test_case "lockstep-ess" `Quick
            (shares_sum_to_one (one_step (module W.Lockstep)));
          Alcotest.test_case "rsm-knee" `Quick (shares_sum_to_one (one_step (module W.Rsm_knee)));
          Alcotest.test_case "es model check, n=3" `Quick (shares_sum_to_one mc_n3);
        ] );
    ]
