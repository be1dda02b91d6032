(* Host-speed reference: see speed.mli. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
let period_s = 0.05
let reference_kernel_s = 1e-3

(* Samples on either side of one that the smoothing median takes in. *)
let smooth = 2

let kernel () =
  let l = List.init 2000 (fun i -> ((i * 31) mod 2003, i)) in
  let l = List.sort compare l in
  let h = Hashtbl.create 16 in
  List.iter (fun (a, b) -> Hashtbl.replace h a b) l;
  let s = ref 0 in
  for i = 0 to 1999 do
    s := !s + Option.value (Hashtbl.find_opt h i) ~default:0
  done;
  ignore (Sys.opaque_identity !s)

(* The run's samples, newest first. Only the main domain samples: the
   alarm is registered there, and steps start there. *)
type state = {
  mutable on : bool;
  mutable jobs : int;
  mutable busy : bool;  (** Inside the kernel: an alarm must not re-enter. *)
  mutable last : float;
  mutable spent : float;
  mutable taken : (float * float) list;
  mutable alarm : Gc.alarm option;
}

let st = { on = false; jobs = 1; busy = false; last = neg_infinity; spent = 0.; taken = []; alarm = None }

(* At [jobs] > 1 the kernel runs on that many domains at once, as the
   workload's own steps do, and the sample is their mean time. *)
let timed () =
  let t0 = now_s () in
  kernel ();
  now_s () -. t0

let take () =
  st.busy <- true;
  let t0 = now_s () in
  let others = List.init (st.jobs - 1) (fun _ -> Domain.spawn timed) in
  let own = timed () in
  let times = own :: List.map Domain.join others in
  let t1 = now_s () in
  let mean = List.fold_left ( +. ) 0. times /. float_of_int st.jobs in
  st.taken <- ((t0 +. t1) /. 2., mean) :: st.taken;
  st.last <- t1;
  st.spent <- st.spent +. (t1 -. t0);
  st.busy <- false

let sample () = if st.on && (not st.busy) && now_s () -. st.last >= period_s then take ()

(* Domains are spawned only between steps, never from a finaliser. *)
let on_alarm () = if st.jobs = 1 then sample ()

let start ~jobs =
  st.jobs <- jobs;
  st.taken <- [];
  st.spent <- 0.;
  st.on <- true;
  take ();
  if st.alarm = None then st.alarm <- Some (Gc.create_alarm on_alarm)

let spent_s () = st.spent

type profile = {
  raw : float array;
  kernel_s : float array;  (** Smoothed. *)
  bounds : float array;  (** Sample [i] stands for [\[bounds.(i), bounds.(i+1)\)]. *)
}

let median_of a lo hi =
  let w = Array.sub a lo (hi - lo + 1) in
  Array.sort Float.compare w;
  let m = Array.length w in
  if m mod 2 = 1 then w.(m / 2) else (w.((m / 2) - 1) +. w.(m / 2)) /. 2.

let of_samples taken =
  let times = Array.of_list (List.map fst taken) and raw = Array.of_list (List.map snd taken) in
  let n = Array.length raw in
  if n = 0 then invalid_arg "Speed.of_samples: no samples";
  let kernel_s =
    Array.init n (fun i -> median_of raw (max 0 (i - smooth)) (min (n - 1) (i + smooth)))
  in
  let bounds =
    Array.init (n + 1) (fun i ->
        if i = 0 then neg_infinity
        else if i = n then infinity
        else (times.(i - 1) +. times.(i)) /. 2.)
  in
  { raw; kernel_s; bounds }

let finish () =
  st.on <- false;
  Option.iter Gc.delete_alarm st.alarm;
  st.alarm <- None;
  of_samples (List.rev st.taken)

let samples p = Array.copy p.raw

(* The last sample whose interval starts at or before [t]. *)
let locate p t =
  let lo = ref 0 and hi = ref (Array.length p.kernel_s - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if p.bounds.(mid) <= t then lo := mid else hi := mid - 1
  done;
  !lo

let scale p ~start ~stop =
  let n = Array.length p.kernel_s in
  let factor i = reference_kernel_s /. p.kernel_s.(i) in
  if not (stop > start) then factor (locate p start)
  else begin
    let acc = ref 0. and i = ref (locate p start) in
    while !i < n && p.bounds.(!i) < stop do
      let overlap = Float.min stop p.bounds.(!i + 1) -. Float.max start p.bounds.(!i) in
      if overlap > 0. then acc := !acc +. (overlap *. factor !i);
      incr i
    done;
    !acc /. (stop -. start)
  end
