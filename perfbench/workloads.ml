(* The three benchmark workloads. Each step runs either the program's
   modules as they are (end-to-end) or the same modules wrapped by
   {!Probe} (traced); nothing else differs between the two. Results are
   folded into a {!tally} as they arrive: a run keeps no per-operation
   data beyond one float per run, so memory stays flat however long the
   run lasts. *)

open Anon_kernel
module G = Anon_giraf
module C = Anon_consensus
module X = Anon_exec

let now_s = Speed.now_s

(* Independent, reproducible input stream per (seed, step index). *)
let mix seed k = Hashtbl.hash (seed, k, 0x5eed)

(* Linear interpolation between closest ranks; nan on an empty sample. *)
let percentile p a =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let a = Array.copy a in
    Array.sort Float.compare a;
    let x = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median a = percentile 50. a

(* A fixed-size uniform sample (reservoir sampling, deterministic), so
   the benchmark's own memory does not grow with a run's length or
   speed and peak RSS measures the program. *)
module Samples = struct
  let capacity = 16_384

  type t = { data : float array; mutable seen : int; rng : Random.State.t }

  let create () = { data = Array.make capacity 0.; seen = 0; rng = Random.State.make [| 0x5eed |] }

  let add t x =
    if t.seen < capacity then t.data.(t.seen) <- x
    else begin
      let j = Random.State.int t.rng (t.seen + 1) in
      if j < capacity then t.data.(j) <- x
    end;
    t.seen <- t.seen + 1

  let to_array t = Array.sub t.data 0 (min t.seen capacity)
end

(* One step as the driver timed it. *)
type step = {
  start_s : float;
  stop_s : float;
  kernel_s : float;  (** Time {!Speed} spent inside the step. *)
  step_ops : float;
  step_run_ms : float;  (** Median wall time of the step's runs. *)
}

type tally = {
  mutable elapsed_s : float;
      (** Wall time of the steps, as timed by the driver, less {!Speed}'s
          time inside them. *)
  mutable ops : float;  (** Units of work done: what [ops_per_s] counts. *)
  mutable attempted : int;
  mutable failed : int;
  run_ms : Samples.t;  (** Wall time of each run: a consensus run, service run or exploration. *)
  mutable step_ms : float list;  (** The current step's run times; the driver takes them. *)
  mutable steps : step list;  (** Every step so far, newest first. *)
}

let add_run t ms =
  Samples.add t.run_ms ms;
  t.step_ms <- ms :: t.step_ms

let tally () =
  {
    elapsed_s = 0.; ops = 0.; attempted = 0; failed = 0; run_ms = Samples.create ();
    step_ms = []; steps = [];
  }

module type S = sig
  val jobs : int
  (** Pool width of the workload's own fan-out. *)

  val rss_steps : int
  (** Steps after which the end-to-end run reads peak RSS: a fixed amount
      of work, since the heap of [lockstep-ess] grows with every step. *)

  val setup : seed:int -> unit
  (** Everything before the first timed step: inputs and a warm-up step. *)

  type acc

  val create : unit -> acc
  val tally : acc -> tally

  val step : acc -> traced:bool -> jobs:int -> seed:int -> int -> unit
  (** Run step [k] of the seed's input stream and fold its results in. *)

  val info : acc -> (string * float) list
  (** Workload-specific results, by metric name. *)
end

(* --- the step driver ----------------------------------------------------------- *)

type mode = { traced : bool; jobs : int }

(* Run steps 0, 1, ... round-robin over [modes] until [seconds] have
   passed and every mode has run once; each mode folds into its own
   accumulator. Interleaving the modes step by step exposes them to the
   same host conditions. A traced step is a root span of its own, so the
   traced domain-time is exactly the traced steps' wall time. [between]
   runs first and then again whenever [period] seconds have passed,
   outside any step's time. [after] gets the number of steps done after
   each step. {!Speed} samples before each step, if it is on. Returns the
   accumulators and the major collections seen during traced steps. *)
let drive (type a) ?(period = infinity) ?(between = ignore) ?(after = ignore)
    (module M : S with type acc = a) ~seed ~seconds modes =
  let accs = Array.map (fun _ -> M.create ()) modes in
  let majors = ref 0 in
  let t0 = now_s () in
  let next = ref t0 in
  let k = ref 0 in
  while !k < Array.length modes || now_s () -. t0 < seconds do
    if now_s () >= !next then begin
      between ();
      next := now_s () +. period
    end;
    Speed.sample ();
    let i = !k mod Array.length modes in
    let { traced; jobs } = modes.(i) in
    let t = M.tally accs.(i) in
    let ops0 = t.ops in
    let g0 = (Gc.quick_stat ()).major_collections in
    let k0 = Speed.spent_s () in
    let s0 = now_s () in
    if traced then
      Span.within ~inst:!k Span.Bench (fun () -> M.step accs.(i) ~traced ~jobs ~seed !k)
    else M.step accs.(i) ~traced ~jobs ~seed !k;
    let s1 = now_s () in
    let kernel_s = Speed.spent_s () -. k0 in
    t.elapsed_s <- t.elapsed_s +. (s1 -. s0 -. kernel_s);
    t.steps <-
      { start_s = s0; stop_s = s1; kernel_s; step_ops = t.ops -. ops0;
        step_run_ms = median (Array.of_list t.step_ms) }
      :: t.steps;
    t.step_ms <- [];
    after (!k + 1);
    if traced then majors := !majors + (Gc.quick_stat ()).major_collections - g0;
    incr k
  done;
  (accs, !majors)

(* A set-up that runs step 0 untimed. Set-up is timed repeatedly, so it
   reuses one accumulator rather than allocating fresh sample buffers
   each time. *)
let warm_up ~create ~step ~tally ~jobs =
  let scratch = lazy (create ()) in
  fun ~seed ->
    let a = Lazy.force scratch in
    step a ~traced:false ~jobs ~seed 0;
    (tally a).step_ms <- []

(* --- lockstep-ess ------------------------------------------------------------ *)

module Lockstep = struct
  let jobs = 2
  let rss_steps = 128
  let batch = 64
  let horizon = 400

  type run = {
    env : string;  (** What the adversary promised, as the checker saw it. *)
    decisions : (int * int * Value.t) list;
    rounds : int;
    sent : int;
    deliveries : int;
    timely : int;
    violations : string list;  (** The checker's findings, rendered. *)
    all_decided : bool;
  }

  (* Run [i] of the stream: n in {8, 16}, GST in 5..30, up to n/4
     crashes at rounds up to 30, the ESS schedule with 20% noise. *)
  let config ~seed i =
    let rng = Rng.make (mix seed i) in
    let n = if Rng.bool rng then 8 else 16 in
    let gst = Rng.int_in rng 5 30 in
    let failures = Rng.int_in rng 0 (n / 4) in
    let crash = G.Crash.random ~n ~failures ~max_round:30 rng in
    let inputs = Rng.shuffle rng (List.init n (fun i -> i + 1)) in
    G.Runner.default_config ~horizon ~seed:(mix seed (-i - 1)) ~inputs ~crash
      (G.Adversary.ess ~gst ~noise:0.2 ())

  module Plain = G.Runner.Make (C.Ess_consensus)
  module Traced = G.Runner.Make (Probe.Algorithm (C.Ess_consensus) (Probe.Ess_layers))

  let run ~traced ~seed i =
    let cfg = config ~seed i in
    let o, violations =
      if traced then begin
        let cfg = { cfg with G.Runner.adversary = Probe.adversary cfg.G.Runner.adversary } in
        let o = Span.within Span.Step_core (fun () -> Traced.run cfg) in
        (o, Probe.check o.trace)
      end
      else begin
        let o = Plain.run cfg in
        (o, G.Checker.check_env o.trace @ G.Checker.check_consensus o.trace)
      end
    in
    {
      env = G.Env.to_string o.trace.env;
      decisions = o.decisions;
      rounds = o.rounds_executed;
      sent = o.messages_sent;
      deliveries = o.deliveries;
      timely = o.timely_deliveries;
      violations = List.map (Format.asprintf "%a" G.Checker.pp_violation) violations;
      all_decided = o.all_correct_decided;
    }

  (* Step [b] runs [b*batch ..] on the pool, [f] applied inside each task. *)
  let on_pool ~traced ~jobs b f =
    let ids = List.init batch (fun j -> (b * batch) + j) in
    if traced then Probe.pool_map ~jobs ~inst:Fun.id f ids else X.Pool.map ~jobs f ids

  let outputs ~traced ~jobs ~seed ~batches =
    List.concat_map
      (fun b -> on_pool ~traced ~jobs b (run ~traced ~seed))
      (List.init batches Fun.id)

  type acc = { t : tally; decide_rounds : Samples.t }

  let create () = { t = tally (); decide_rounds = Samples.create () }
  let tally a = a.t

  (* A run fails on a checker violation or when a correct process has not
     decided by the horizon. Each task hands back plain numbers only, so
     the run itself dies on the worker's heap. *)
  let step a ~traced ~jobs ~seed b =
    let task i =
      let t0 = now_s () in
      let r = run ~traced ~seed i in
      let ms = (now_s () -. t0) *. 1e3 in
      (i, r.violations, r.all_decided, List.fold_left (fun m (_, k, _) -> max m k) 0 r.decisions, ms)
    in
    List.iter
      (fun (i, violations, all_decided, decide_round, ms) ->
        a.t.ops <- a.t.ops +. 1.;
        a.t.attempted <- a.t.attempted + 1;
        if violations <> [] || not all_decided then begin
          a.t.failed <- a.t.failed + 1;
          Printf.printf "FAILED lockstep-ess seed %d run %d: %s\n%!" seed i
            (String.concat "; "
               ((if all_decided then [] else [ "undecided at the horizon" ]) @ violations))
        end;
        add_run a.t ms;
        Samples.add a.decide_rounds (float_of_int decide_round))
      (on_pool ~traced ~jobs b task)

  let setup = warm_up ~create ~step ~tally ~jobs

  let info a =
    let run_ms = Samples.to_array a.t.run_ms in
    [
      ("lockstep.runs_per_s", a.t.ops /. a.t.elapsed_s);
      ("lockstep.run_p50_ms", median run_ms);
      ("lockstep.run_p99_ms", percentile 99. run_ms);
      ("lockstep.decide_round_p50", median (Samples.to_array a.decide_rounds));
    ]
end

(* --- rsm-knee ---------------------------------------------------------------- *)

module Rsm_knee = struct
  let jobs = 1
  let rss_steps = 400

  (* The T16 saturation configuration; 8 proposals/round is ~87% of its
     measured 9.2/round capacity, just below the knee. *)
  let n = 3
  let window = 8
  let batch = 4
  let shards = 2
  let gst = 4
  let rate = 8.
  let proposals = 2_000
  let horizon = 200_000

  let workload ~proposals ~seed k =
    Anon_rsm.Workload.make ~where:"perfbench" ~skew:0.2 ~value_range:8 ~shards
      ~proposals ~rate ~seed:(mix seed k) ()

  module Plain = Anon_rsm.Load.Make (C.Es_consensus)
  module Traced = Anon_rsm.Load.Make (Probe.Algorithm (C.Es_consensus) (Probe.Es_layers))

  let env = Printf.sprintf "es:%d" gst

  let run ~traced w =
    if traced then
      Span.within Span.Rsm (fun () ->
          Traced.run ~jobs ~env ~n ~window ~batch ~horizon
            ~adversary:(fun ~shard:_ ~instance:_ -> Probe.adversary (G.Adversary.es ~gst ()))
            w)
    else
      Plain.run ~jobs ~env ~n ~window ~batch ~horizon
        ~adversary:(fun ~shard:_ ~instance:_ -> G.Adversary.es ~gst ())
        w

  let outputs ~traced ~proposals ~seed k =
    Anon_obs.Json.to_string (Anon_rsm.Load.to_json (run ~traced (workload ~proposals ~seed k)))

  type acc = {
    t : tally;
    throughput : Samples.t;
    p50 : Samples.t;
    p99 : Samples.t;
    instances : Samples.t;
    rounds : Samples.t;
    mutable stalled : int;
    mutable instance_msgs : int;
    mutable broadcasts : int;
  }

  let create () =
    {
      t = tally (); throughput = Samples.create (); p50 = Samples.create ();
      p99 = Samples.create (); instances = Samples.create (); rounds = Samples.create ();
      stalled = 0; instance_msgs = 0; broadcasts = 0;
    }

  let tally a = a.t

  (* A service run fails unless agreement and validity hold, nothing
     stalls and every offered proposal commits. *)
  let step a ~traced ~jobs:_ ~seed k =
    let t0 = now_s () in
    let r = run ~traced (workload ~proposals ~seed k) in
    add_run a.t ((now_s () -. t0) *. 1e3);
    let ok = r.agreement_ok && r.validity_ok && r.stalled = 0 in
    if not (ok && r.committed = proposals) then
      Printf.printf
        "FAILED rsm-knee seed %d step %d: agreement %b, validity %b, stalled %d, committed %d/%d\n%!"
        seed k r.agreement_ok r.validity_ok r.stalled r.committed proposals;
    a.t.ops <- a.t.ops +. float_of_int r.committed;
    a.t.attempted <- a.t.attempted + proposals;
    a.t.failed <- a.t.failed + (if ok then proposals - r.committed else proposals);
    Samples.add a.throughput r.throughput;
    Samples.add a.p50 r.p50_rounds;
    Samples.add a.p99 r.p99_rounds;
    Samples.add a.instances
      (float_of_int (List.fold_left (fun acc s -> acc + s.Anon_rsm.Load.instances) 0 r.shards));
    Samples.add a.rounds (float_of_int r.rounds);
    a.stalled <- a.stalled + r.stalled;
    a.instance_msgs <- a.instance_msgs + r.instance_msgs;
    a.broadcasts <- a.broadcasts + r.broadcasts

  let setup = warm_up ~create ~step ~tally ~jobs

  let info a =
    let med s = median (Samples.to_array s) in
    let instances = Array.fold_left ( +. ) 0. (Samples.to_array a.instances) in
    [
      ("rsm.committed_per_s", a.t.ops /. a.t.elapsed_s);
      ("rsm.throughput_per_round", med a.throughput);
      ("rsm.p50_rounds", med a.p50);
      ("rsm.p99_rounds", med a.p99);
      ("rsm.instances", med a.instances);
      ("rsm.rounds", med a.rounds);
      ("rsm.stalled", float_of_int a.stalled);
      ("rsm.proposals_per_instance", float_of_int a.t.attempted /. instances);
      ("rsm.msgs_per_bundle", float_of_int a.instance_msgs /. float_of_int a.broadcasts);
    ]
end

(* --- mc-es-n4 ---------------------------------------------------------------- *)

module Mc_es = struct
  let jobs = 1
  let rss_steps = 2
  let n = 4
  let depth = 6
  let gst = 3

  (* What `anonc mc --algo es -n 4 --rounds 6 --gst 3` reports, for every
     permutation of the proposals. *)
  let pinned_raw = 322_243
  let pinned_canonical = 383

  let spec ~n ~gst ~inputs =
    {
      Anon_mc.Consensus_sys.inputs;
      crash = G.Crash.none ~n;
      churn = G.Churn.none ~n;
      env = G.Env.Es { gst };
      max_delay = 1;
      armed = false;
    }

  let inputs ~n ~seed k = Rng.shuffle (Rng.make (mix seed k)) (List.init n (fun i -> i + 1))

  module Traced_model = Probe.Model (C.Es_consensus) (Probe.Es_layers)

  let explore ?(n = n) ?(gst = gst) ?(depth = depth) ~traced ~seed k =
    let spec = spec ~n ~gst ~inputs:(inputs ~n ~seed k) in
    if traced then begin
      let module S =
        Probe.System ((val Anon_mc.Consensus_sys.make (module Traced_model) spec))
      in
      Span.within ~inst:k Span.Mc_explore (fun () ->
          Anon_mc.Explore.bfs ~jobs ~depth (module S))
    end
    else Anon_mc.Explore.bfs ~jobs ~depth (Anon_mc.Consensus_sys.make (module C.Es_consensus) spec)

  type acc = {
    t : tally;
    mutable explorations : int;
    mutable canonical : int;
    mutable dedup : int;
    mutable frontier_peak : int;
  }

  let create () = { t = tally (); explorations = 0; canonical = 0; dedup = 0; frontier_peak = 0 }
  let tally a = a.t

  (* An exploration fails unless it verifies with the pinned counts. *)
  let step a ~traced ~jobs:_ ~seed k =
    let t0 = now_s () in
    let r = explore ~traced ~seed k in
    add_run a.t ((now_s () -. t0) *. 1e3);
    let s = r.stats in
    let ok =
      r.violation = None && s.bound_branches = 0 && s.raw_states = pinned_raw
      && s.canonical_states = pinned_canonical
    in
    a.t.ops <- a.t.ops +. float_of_int s.raw_states;
    a.t.attempted <- a.t.attempted + 1;
    if not ok then begin
      a.t.failed <- a.t.failed + 1;
      Printf.printf "FAILED mc-es-n4 seed %d step %d: violation %b, cut %d, raw %d, canonical %d\n%!"
        seed k (r.violation <> None) s.bound_branches s.raw_states s.canonical_states
    end;
    a.explorations <- a.explorations + 1;
    a.canonical <- a.canonical + s.canonical_states;
    a.dedup <- a.dedup + s.dedup_hits;
    a.frontier_peak <- max a.frontier_peak s.frontier_peak

  (* The warm-up before timing: the same exploration, one round deep. *)
  let setup ~seed = ignore (explore ~depth:1 ~traced:false ~seed 0)

  let info a =
    let per x = float_of_int x /. float_of_int a.explorations in
    [
      ("mc.states_per_s", a.t.ops /. a.t.elapsed_s);
      ("mc.raw_states", a.t.ops /. float_of_int a.explorations);
      ("mc.canonical_states", per a.canonical);
      ("mc.dedup_ratio", float_of_int a.dedup /. a.t.ops);
      ("mc.frontier_peak", float_of_int a.frontier_peak);
    ]
end
