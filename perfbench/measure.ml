(* Clocks, allocation counters, and the untraced end-to-end run. *)

let now = Unix.gettimeofday

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let minimum xs = List.fold_left Float.min infinity xs

(* Words allocated so far by every domain, terminated ones included.
   [Gc.counters] misses the words of worker domains that have exited;
   [Gc.quick_stat] keeps them, but its minor count only refreshes at a
   minor collection, hence the [Gc.minor] first.  Call it outside timed
   regions. *)
let allocated_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

let timed f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* [f]'s wall time and the words it allocated. *)
let timed_alloc f =
  let w0 = allocated_words () in
  let t, r = timed f in
  (t, allocated_words () -. w0, r)

(* [f]'s wall time, the CPU time of this process while it ran (user +
   system, every domain, from getrusage) and the words it allocated. *)
let timed_cpu_alloc f =
  let c0 = Sys.time () in
  let t, words, r = timed_alloc f in
  (t, Sys.time () -. c0, words, r)

(* The probe: a fixed piece of allocation-heavy work on the standard
   library alone, nothing under test, timed in CPU seconds right before
   and right after every job.  A neighbour that slows this core slows
   the probe with the job, so the job's CPU time over the probe's is
   steady where either alone is not.  [probe_nominal] is the probe's
   reference time: the job's time at the reference speed is its CPU
   time times [probe_nominal] over the probe's. *)
module Int_map = Map.Make (Int)

let probe_work () =
  let m = ref Int_map.empty in
  for k = 1 to 20_000 do
    m := Int_map.add ((k * 7919) land 8191) (k, [ k ]) !m
  done;
  let l = List.init 40_000 (fun i -> (i, i * 3)) in
  let l = List.rev_map (fun (a, b) -> (b, a + 1)) l in
  ignore (Sys.opaque_identity (Int_map.cardinal !m, List.length l))

let probe_nominal = 0.01

(* CPU seconds of one probe, the median of three. *)
let probe () =
  median
    (List.init 3 (fun _ ->
         let c0 = Sys.time () in
         probe_work ();
         Sys.time () -. c0))

(* Peak resident set (VmHWM) of this process, in kB. *)
let vmhwm_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc/self/status"
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" Fun.id
        | Some _ -> scan ()
      in
      scan ())

type metric = { name : string; value : float; unit : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : (string * Lepower_obs.Json.t) list;  (* stamped, not metrics *)
}

(* Seconds per call of [f], which takes microseconds, near the clock's
   resolution: the means of [batches] batches of [batch] calls each. *)
let batch = 100

let batch_means ~batches f =
  List.init batches (fun _ ->
      let t, () =
        timed (fun () ->
            for _ = 1 to batch do
              f ()
            done)
      in
      t /. Float.of_int batch)

let batched_median f = median (batch_means ~batches:31 f)

(* Set-up batches timed before the warm-up and after every sample, so
   [setup_s] sees the same machine conditions the jobs do. *)
let setup_batches = 32
let min_samples = 3

(* Jobs whose answer was checked, and those whose answer was wrong; a
   wrong answer is reported on standard error. *)
type counts = { mutable tried : int; mutable missed : int }

let counts () = { tried = 0; missed = 0 }

let tally c what = function
  | Ok () -> c.tried <- c.tried + 1
  | Error e ->
    c.tried <- c.tried + 1;
    c.missed <- c.missed + 1;
    Printf.eprintf "%s failed: %s\n%!" what e

let result_of c metrics notes =
  { correct = c.missed = 0; attempted = c.tried; failed = c.missed; metrics; notes }

(* The untraced run, one process per workload: set-up timing, a warm-up
   job, timed jobs until [seconds] have passed (at least [min_samples]),
   and the once-per-run gate.  Every answer is checked outside the timed
   region; a miss is a failed job.  The peak RSS is the process's VmHWM
   after the warm-up, so it is one job's peak in a fresh process.

   [job_ref_s] is each job's CPU time at the probe's reference speed,
   the median over the jobs.  CPU time leaves out every stretch in which
   another process held the job's core; the probe takes out a neighbour
   slowing the core itself from outside the machine, which CPU time and
   wall time both see.  The raw wall and CPU times are in the stamp
   line.  [setup_s] is the fastest batch: a batch is a few hundred
   microseconds, so some batches always run clear of interference,
   which only ever adds time. *)
let end_to_end ?pins ~size ~seed ~seconds name =
  let w = Workloads.make ?pins ~size ~seed name in
  let c = counts () in
  let tally what = tally c (name ^ ": " ^ what) in
  let setup_times = ref [] in
  let time_setup () =
    setup_times := batch_means ~batches:setup_batches w.setup @ !setup_times
  in
  time_setup ();
  tally "warm-up job" (w.job () ());
  (* Read now: the process has run set-up and this one job only.  Later
     jobs reuse a heap the runtime does not give back, so the peak would
     drift up with fragmentation. *)
  let peak_kb = vmhwm_kb () in
  let samples = ref [] in
  let t_start = now () in
  while List.length !samples < min_samples || now () -. t_start < seconds do
    let before = probe () in
    (* Every sample starts from a compacted heap, as the first job of a
       fresh process would. *)
    Gc.compact ();
    let t, cpu, words, check = timed_cpu_alloc w.job in
    let around = (before +. probe ()) /. 2. in
    tally "job" (check ());
    samples := (t, cpu, around, words) :: !samples;
    time_setup ()
  done;
  Option.iter (fun gate -> tally "decision-set gate" (gate ())) w.gate;
  let walls = List.map (fun (t, _, _, _) -> t) !samples
  and cpus = List.map (fun (_, c, _, _) -> c) !samples
  and probes = List.map (fun (_, _, p, _) -> p) !samples
  and words = List.map (fun (_, _, _, w) -> w) !samples in
  let at_reference = List.map2 (fun c p -> c *. probe_nominal /. p) cpus probes in
  let m name value unit = { name; value; unit } in
  result_of c
    [
      m "job_ref_s" (median at_reference) "s";
      m "setup_s" (minimum !setup_times) "s";
      m "peak_rss_mb" (Float.of_int peak_kb /. 1024.) "MB";
      m "alloc_mwords" (median words /. 1e6) "Mwords";
      m "success_rate"
        (Float.of_int (c.tried - c.missed) /. Float.of_int c.tried)
        "ratio";
    ]
    [
      ("samples", Lepower_obs.Json.Int (List.length walls));
      ("wall_median_s", Lepower_obs.Json.Float (median walls));
      ("cpu_median_s", Lepower_obs.Json.Float (median cpus));
      ("probe_median_s", Lepower_obs.Json.Float (median probes));
      ("setup_median_s", Lepower_obs.Json.Float (median !setup_times));
      ( "walls_s",
        Lepower_obs.Json.List
          (List.rev_map (fun t -> Lepower_obs.Json.Float t) walls) );
      ( "cpus_s",
        Lepower_obs.Json.List
          (List.rev_map (fun t -> Lepower_obs.Json.Float t) cpus) );
      ( "probes_s",
        Lepower_obs.Json.List
          (List.rev_map (fun t -> Lepower_obs.Json.Float t) probes) );
      ("setup_reps", Lepower_obs.Json.Int (List.length !setup_times * batch));
    ]
