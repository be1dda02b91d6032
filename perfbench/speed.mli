(** Host-speed reference for the end-to-end metrics.

    The host the benchmark was defined on changes speed by up to 1.7x,
    for stretches from half a second to tens of seconds, and everything
    on it slows alike. A wall-clock figure from one run therefore says as
    much about the host as about the program. While an end-to-end run
    measures, this module times a fixed reference kernel every
    {!period_s} or so: between steps, and inside them from a [Gc] alarm
    at the end of each major cycle, so that long steps are sampled too.
    A workload that runs on several domains at once has the kernel run
    on as many, between its steps, so that it meets the same contention.
    Afterwards each measured interval is rescaled to the time it would
    have taken on a host where the kernel takes {!reference_kernel_s}.

    The kernel is OCaml work of the kind the workloads do (short-lived
    lists and tuples, a sort with polymorphic compare, a hash table). It
    runs none of the program's code, so a change to the program moves the
    rescaled figures as much as the raw ones. Its own time is counted
    ({!spent_s}) so that callers can take it out of what they time. *)

val now_s : unit -> float
(** Monotonic clock, in seconds. *)

val period_s : float
(** Least time between two samples of the kernel. *)

val reference_kernel_s : float
(** The kernel's time on the reference host. *)

val kernel : unit -> unit
(** The reference kernel itself. *)

val start : jobs:int -> unit
(** Forget earlier samples, take one now, and keep sampling until
    {!finish}, on [jobs] domains at once. At [jobs] = 1 the [Gc] alarm
    samples inside steps too. *)

val sample : unit -> unit
(** Time the kernel if sampling is on and {!period_s} has passed since
    the last sample; otherwise do nothing. *)

val spent_s : unit -> float
(** Total time spent in the kernel since {!start}. *)

type profile
(** The samples of one run, smoothed. *)

val finish : unit -> profile
(** Stop sampling. Each sample is replaced by the median of itself and
    its two neighbours on either side, and stands for the time from
    halfway after the previous sample to halfway before the next. *)

val samples : profile -> float array
(** The kernel's raw times, in seconds, in order. *)

val scale : profile -> start:float -> stop:float -> float
(** The mean over [\[start, stop\]] of {!reference_kernel_s} ÷ the
    kernel's smoothed time: multiply a duration measured in that interval
    by it to get the duration at reference speed. *)

val of_samples : (float * float) list -> profile
(** A profile from [(time, kernel seconds)] pairs in time order, smoothed
    as {!finish} does. *)
