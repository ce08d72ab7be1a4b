(* The traced run: the per-layer ladder, measured from outside the
   program.  Every number here comes from timing a call into a layer's
   public functions from this file, or from counts those calls return;
   nothing is instrumented inside the libraries.

   Each layer is measured on the workload the table in README.md assigns
   it to, so one traced run yields the whole ladder.  The lowering
   counts, [ladder.coverage_pct] and [trace.overhead_pct] belong to the
   workload named on the command line. *)

open Workloads
module Machine = Engine.Machine
module View = Engine.Config_view
module Fingerprint = Runtime.Fingerprint
module Json = Lepower_obs.Json

let timed = Measure.timed
let timed_alloc = Measure.timed_alloc
let ns s calls = if calls = 0 then 0. else s *. 1e9 /. Float.of_int calls
let ratio a b = if b = 0 then 0. else Float.of_int a /. Float.of_int b

(* Spans recorded around the calls into each layer, kept in memory and
   written to standard error as one Chrome-trace JSON line at the end. *)
let spans = ref []
let t_origin = Measure.now ()

let span ?(parent = "ladder") name f =
  let t0 = Measure.now () in
  let r = f () in
  let t1 = Measure.now () in
  spans :=
    {
      Lepower_obs.Span.name;
      start_us = (t0 -. t_origin) *. 1e6;
      dur_us = (t1 -. t0) *. 1e6;
      tid = 0;
      args = [ ("parent", Json.String parent) ];
    }
    :: !spans;
  (t1 -. t0, r)

(* Answers the ladder's own calls must reproduce; a miss is a failed
   job exactly as in the untraced run. *)
let jobs = Measure.counts ()
let tally what = Measure.tally jobs ("ladder: " ^ what)

let tally_if_error what = function
  | Ok () -> ()
  | Error _ as e -> tally what e

let expect what got want =
  tally what
    (if got = want then Ok ()
     else Error (Printf.sprintf "got %d, pinned %d" got want))

let walk_stats () =
  {
    Machine.w_configs = 0;
    w_terminals = 0;
    w_truncated = 0;
    w_max_depth = 0;
    w_choice_points = 0;
  }

(* Lowering reports of every machine a walk built, summed. *)
type lowering = {
  mutable nodes : int;
  mutable hits : int;
  mutable misses : int;
  mutable bailed : int;
}

let lowering_hook () =
  let l = { nodes = 0; hits = 0; misses = 0; bailed = 0 } in
  let add reports =
    Array.iter
      (fun (r : Runtime.Program.Compiled.report) ->
        l.nodes <- l.nodes + r.nodes;
        l.hits <- l.hits + r.hits;
        l.misses <- l.misses + r.misses;
        if r.bailed then l.bailed <- l.bailed + 1)
      reports
  in
  (l, add)

(* What one layer group reports: its metrics, and for its workload the
   traced wall, the seconds the layers account for, and the CPUs the
   wall had (coverage divides by wall x domains). *)
type reading = {
  metrics : (string * float * string) list;
  wall : float;
  layer_s : float;
  cpus : int;
  lowering : lowering option;
}

(* --- Engine.Machine, the predicate and Explore, on naive-k9 --------- *)

(* The naive rungs are timed in [naive_rounds] interleaved rounds and
   reported as medians; each rung adds one layer to the one below it:
   the plain machine walk, the same walk with leaf hooks, the hooks
   running [Election.check_config], the explorer running the same
   predicate through [Explore.check_all], and the workload's own call. *)
let naive_rounds = 3

let naive size =
  let inst = walk_instance "naive-k9" size in
  let pinned = (pins size).naive in
  let config = Election.config inst in
  let walk name hooks () =
    let m = Machine.of_config config in
    let ws = walk_stats () in
    let path = Array.make (max_steps + Machine.n_procs m + 2) 0 in
    let t, words, () =
      timed_alloc (fun () ->
          snd
            (span ~parent:"naive-k9" name (fun () ->
                 match hooks with
                 | None ->
                   Machine.walk_naive ~crash_faults:true ~max_steps ~depth0:0
                     ws m
                 | Some on_terminal ->
                   Machine.walk_naive_checked ~crash_faults:true ~max_steps
                     ~depth0:0 ~path ~on_terminal:(on_terminal m)
                     ~on_truncated:ignore ws m)))
    in
    expect (name ^ " configurations") ws.w_configs pinned.configs_visited;
    expect (name ^ " terminals") ws.w_terminals pinned.terminals;
    (t, words)
  in
  (* The view never replays: [check_config] reads only order-insensitive
     accessors. *)
  let replay () = failwith "check_config read the trace" in
  let check m _ =
    tally_if_error "check_config"
      (Election.check_config inst (View.of_machine_flat m ~replay))
  in
  let check_all () =
    let t, r =
      span ~parent:"naive-k9" "Explore.check_all" (fun () ->
          Explore.check_all ~options:(options_of "naive-k9") config
            (Election.check_config inst))
    in
    tally "naive-k9 check_all"
      (check_stats ~pinned
         (Result.map_error (fun (v : Explore.violation) -> v.message) r));
    (t, 0.)
  in
  let low = ref None in
  let explore_stats () =
    let l, on_lowering = lowering_hook () in
    low := Some l;
    let options =
      { (options_of "naive-k9") with on_lowering = Some on_lowering }
    in
    let t, r =
      span ~parent:"naive-k9" "Election.explore_stats" (fun () ->
          Election.explore_stats ~options inst ~max_steps)
    in
    tally "naive-k9 explore_stats" (check_stats ~pinned r);
    (t, 0.)
  in
  let rungs =
    [|
      walk "Machine.walk_naive" None;
      walk "Machine.walk_naive_checked" (Some (fun _ _ -> ()));
      walk "walk_naive_checked+check_config" (Some check);
      check_all;
      explore_stats;
    |]
  in
  let runs = Array.map (fun _ -> ref []) rungs in
  for _ = 1 to naive_rounds do
    Array.iteri (fun i rung -> runs.(i) := rung () :: !(runs.(i))) rungs
  done;
  let time i = Measure.median (List.map fst !(runs.(i))) in
  let words i = snd (List.hd !(runs.(i))) in
  let walk_s = time 0 and checked_s = time 1 and pred_walk_s = time 2 in
  let check_all_s = time 3 and wall = time 4 in
  let moves = pinned.configs_visited - 1 and calls = pinned.terminals in
  let predicate_s = pred_walk_s -. checked_s in
  ( {
    metrics =
      [
        ("machine.walk_s", walk_s, "s");
        ("machine.checked_walk_s", checked_s, "s");
        ("machine.moves", Float.of_int moves, "count");
        ("machine.ns_per_move", ns walk_s moves, "ns");
        ("predicate.s", predicate_s, "s");
        ("predicate.calls", Float.of_int calls, "count");
        ( "predicate.words_per_call",
          (words 2 -. words 1) /. Float.of_int calls,
          "words" );
        ("explore.dispatch_s", check_all_s -. pred_walk_s, "s");
        ("explore.overhead_s", wall -. pred_walk_s, "s");
      ];
    wall;
    layer_s = check_all_s;
    cpus = 1;
    lowering = !low;
  },
    predicate_s *. 1e9 /. Float.of_int calls )

(* --- Per-operation probe costs on the reduced workload's machine ----- *)

type probe_costs = {
  snapshot_ns : float;
  equal_ns : float;
  access_ns : float;
  fingerprint_ns : float;
  frame_ns : float;
}

let probe_reps = 2_000
let probe_states = 64

(* Average ns of [f] over [probe_reps] calls. *)
let per_call f =
  let t, () =
    timed (fun () ->
        for _ = 1 to probe_reps do
          f ()
        done)
  in
  t *. 1e9 /. Float.of_int probe_reps

(* Drive the workload's own machine along a seeded random schedule and,
   at [probe_states] of the states it passes, time the public functions
   the reduced walk calls per move or per probe: [Machine.snapshot] (a
   visited-table insert), [Machine.snapshot_equal] (a probe that hits),
   [Machine.access_enc] (POR's per-process access encoding), the
   [Fingerprint] terms one move updates, and a [step_frame]/[undo_frame]
   pair (one journal-free move). *)
let probe_costs config ~seed =
  let m = Machine.of_config config in
  let n = Machine.n_procs m in
  let root = Machine.mark m in
  let rng = Random.State.make [| seed |] in
  let hists = Array.make n Fingerprint.history_empty in
  let seeds = Hashtbl.create 16 in
  let seed_of loc =
    match Hashtbl.find_opt seeds loc with
    | Some s -> s
    | None ->
      let s = Fingerprint.store_seed loc in
      Hashtbl.add seeds loc s;
      s
  in
  let frame = Machine.frame () in
  let sums = Array.make 5 0. and samples = ref 0 in
  while !samples < probe_states do
    (match Machine.enabled m with
    | [] ->
      Machine.undo_to m root;
      Array.fill hists 0 n Fingerprint.history_empty
    | enabled ->
      let pid = List.nth enabled (Random.State.int rng (List.length enabled)) in
      Machine.step m pid;
      if Machine.last_step_event m then
        hists.(pid) <-
          Fingerprint.history_extend_op hists.(pid) ~loc:(Machine.last_loc m)
            ~op:(Machine.last_op m) ~result:(Machine.last_result m));
    match Machine.enabled m with
    | [] -> ()
    | enabled when Machine.last_step_event m ->
      let pid = List.hd enabled in
      let snap = Machine.snapshot m in
      let s = seed_of (Machine.last_loc m) in
      let old_state = Machine.last_old_state m
      and new_state = Machine.last_new_state m in
      let status = Machine.status m pid in
      let costs =
        [|
          per_call (fun () -> ignore (Sys.opaque_identity (Machine.snapshot m)));
          per_call (fun () ->
              ignore (Sys.opaque_identity (Machine.snapshot_equal m snap)));
          per_call (fun () ->
              ignore (Sys.opaque_identity (Machine.access_enc m pid)));
          per_call (fun () ->
              let store =
                Memory.Value.hash_fold s new_state
                - Memory.Value.hash_fold s old_state
              in
              let proc =
                Fingerprint.proc_hash ~pid status hists.(pid)
                - Fingerprint.proc_hash ~pid Runtime.Proc.Running hists.(pid)
              in
              ignore
                (Sys.opaque_identity
                   (Fingerprint.combine ~store_sum:store ~proc_sum:proc)));
          per_call (fun () ->
              Machine.step_frame m pid frame;
              Machine.undo_frame m frame);
        |]
      in
      Array.iteri (fun i c -> sums.(i) <- sums.(i) +. c) costs;
      incr samples
    | _ -> ()
  done;
  let avg i = sums.(i) /. Float.of_int probe_states in
  {
    snapshot_ns = avg 0;
    equal_ns = avg 1;
    access_ns = avg 2;
    fingerprint_ns = avg 3;
    frame_ns = avg 4;
  }

(* Seconds the reduced walk's layers account for, from the exact
   counters and the per-operation costs: one move, one fingerprint
   update per move, a snapshot per visited configuration, a snapshot
   comparison per dedup hit, and [n] access encodings per expanded
   configuration. *)
type estimate = {
  machine_s : float;
  fingerprint_s : float;
  visited_s : float;
  por_s : float;
  predicate_s : float;
}

let estimate costs ~n ~predicate_ns (s : Explore.stats) =
  let moves = s.configs_visited + s.configs_deduped - 1 in
  let expanded = s.configs_visited - s.terminals - s.truncated in
  let sec ns count = ns *. Float.of_int count /. 1e9 in
  {
    machine_s = sec costs.frame_ns moves;
    fingerprint_s = sec costs.fingerprint_ns moves;
    visited_s =
      sec costs.snapshot_ns s.configs_visited
      +. sec costs.equal_ns s.configs_deduped;
    por_s = sec costs.access_ns (n * expanded);
    predicate_s = sec predicate_ns s.terminals;
  }

let estimate_total e =
  e.machine_s +. e.fingerprint_s +. e.visited_s +. e.por_s +. e.predicate_s

(* --- Explore's reductions, on reduced-k12 ----------------------------- *)

let reduced size ~seed ~predicate_ns =
  let inst = walk_instance "reduced-k12" size in
  let pinned = (pins size).reduced in
  (* Heap growth during the walk, sampled from the explorer's progress
     callback (every 8192 configurations): the visited table's cost. *)
  let gc0 = Gc.quick_stat () in
  let heap0 = gc0.heap_words in
  let peak = ref heap0 in
  let progress (_ : Explore.progress) =
    let h = (Gc.quick_stat ()).heap_words in
    if h > !peak then peak := h
  in
  let low, on_lowering = lowering_hook () in
  let options =
    {
      (options_of "reduced-k12") with
      progress = Some progress;
      on_lowering = Some on_lowering;
    }
  in
  let wall, r =
    span ~parent:"reduced-k12" "Election.explore_stats" (fun () ->
        Election.explore_stats ~options inst ~max_steps)
  in
  let gc1 = Gc.quick_stat () in
  tally "reduced-k12 explore_stats" (check_stats ~pinned r);
  let s = Result.value r ~default:pinned in
  let config = Election.config inst in
  let _, costs =
    span ~parent:"reduced-k12" "probe costs" (fun () ->
        probe_costs config ~seed)
  in
  let n = Array.length config.Engine.procs in
  let e = estimate costs ~n ~predicate_ns s in
  let probes = s.configs_visited + s.configs_deduped in
  let moves_taken = probes - 1 in
  ( {
      metrics =
        [
          ("dedup.probes", Float.of_int probes, "count");
          ("dedup.hits", Float.of_int s.configs_deduped, "count");
          ("dedup.hit_ratio", ratio s.configs_deduped probes, "ratio");
          ("por.checks", Float.of_int s.por_checks, "count");
          ("por.pruned", Float.of_int s.por_pruned, "count");
          ( "por.prune_ratio",
            ratio s.por_pruned (s.por_pruned + moves_taken),
            "ratio" );
          ("por.fast_hits", Float.of_int s.por_fast_hits, "count");
          ( "visited.bytes_per_config",
            Float.of_int ((!peak - heap0) * (Sys.word_size / 8))
            /. Float.of_int s.configs_visited,
            "B" );
          ( "gc.major_collections",
            Float.of_int (gc1.major_collections - gc0.major_collections),
            "count" );
          ( "gc.promoted_mwords",
            (gc1.promoted_words -. gc0.promoted_words) /. 1e6,
            "Mwords" );
          ("fingerprint.ns_per_call", costs.fingerprint_ns, "ns");
          ("visited.snapshot_ns", costs.snapshot_ns, "ns");
          ("visited.equal_ns", costs.equal_ns, "ns");
          ("por.access_ns", costs.access_ns, "ns");
          ("machine.frame_ns", costs.frame_ns, "ns");
          ("machine.frame_est_s", e.machine_s, "s");
          ("fingerprint.est_s", e.fingerprint_s, "s");
          ("visited.est_s", e.visited_s, "s");
          ("por.est_s", e.por_s, "s");
        ];
      wall;
      layer_s = estimate_total e;
      cpus = 1;
      lowering = Some low;
    },
    (s, costs, n) )

(* --- The domain split, on parallel-k12 -------------------------------- *)

let parallel size ~reduced_wall ~reduced_stats ~costs ~n ~predicate_ns =
  let inst = walk_instance "parallel-k12" size in
  let low, on_lowering = lowering_hook () in
  let options =
    { (options_of "parallel-k12") with on_lowering = Some on_lowering }
  in
  let wall, r =
    span ~parent:"parallel-k12" "Election.explore_stats" (fun () ->
        Election.explore_stats ~options inst ~max_steps)
  in
  tally "parallel-k12 explore_stats" (check_verdict r);
  let s = Result.value r ~default:reduced_stats in
  let e = estimate costs ~n ~predicate_ns s in
  {
    metrics =
      [
        ("parallel.domains_used", Float.of_int s.domains_used, "count");
        ("parallel.configs_visited", Float.of_int s.configs_visited, "count");
        ( "parallel.dup_ratio",
          ratio s.configs_visited (reduced_stats : Explore.stats).configs_visited,
          "ratio" );
        ("parallel.speedup_vs_1", reduced_wall /. wall, "ratio");
      ];
    wall;
    layer_s = estimate_total e;
    cpus = max 1 s.domains_used;
    lowering = Some low;
  }

(* --- Fuzz, Sched, Engine and Repro, on fuzz-perm ---------------------- *)

let fuzz size ~seed =
  let inst = perm_instance () and target = broken_cas () in
  let runs = fuzz_runs size and base = fuzz_base size seed in
  let pinned_steps = (pins size).fuzz_steps.(fuzz_slot seed) in
  let campaigns () =
    let perm_s, perm =
      span ~parent:"fuzz-perm" "Election.fuzz" (fun () ->
          Election.fuzz ~runs ~seed:base ~kind:pct inst)
    in
    tally "fuzz-perm campaign" (check_fuzz ~runs ~steps:pinned_steps perm);
    let broken_s, broken =
      span ~parent:"fuzz-perm" "Lint.fuzz_target" (fun () ->
          Lint.fuzz_target ~runs:broken_runs ~seed:base ~kind:pct target)
    in
    tally "broken-cas campaign" (check_found target broken);
    (perm_s, broken_s, perm)
  in
  (* The campaign's runs one by one: [Fuzz.run] from a fresh
     configuration, then the campaign's predicate on the final state. *)
  let max_steps = (inst.step_bound * inst.n * 2) + 1000 in
  let runs_one_by_one () =
    let run_s = ref 0. and partial_s = ref 0. in
    let steps = ref 0 and words = ref 0. in
    let _ =
      span ~parent:"fuzz-perm" "Fuzz.run x runs" (fun () ->
          for i = 0 to runs - 1 do
            let config = Election.config inst in
            let w0 = Gc.minor_words () in
            let t0 = Measure.now () in
            let r =
              Runtime.Fuzz.run ~max_steps ~kind:pct ~seed:(base + i) config
            in
            let t1 = Measure.now () in
            words := !words +. (Gc.minor_words () -. w0);
            tally_if_error "check_partial"
              (Election.check_partial inst (View.of_config r.final));
            partial_s := !partial_s +. (Measure.now () -. t1);
            run_s := !run_s +. (t1 -. t0);
            steps := !steps + List.length r.decisions
          done)
    in
    expect "Fuzz.run decisions" !steps pinned_steps;
    (!run_s, !partial_s, !steps, !words)
  in
  (* Two interleaved rounds, reported as medians. *)
  let rounds = List.init 2 (fun _ -> (campaigns (), runs_one_by_one ())) in
  let med f = Measure.median (List.map f rounds) in
  let perm_s = med (fun ((p, _, _), _) -> p)
  and broken_s = med (fun ((_, b, _), _) -> b)
  and run_s = med (fun (_, (r, _, _, _)) -> r)
  and partial_s = med (fun (_, (_, p, _, _)) -> p) in
  let (_, _, perm), (_, _, steps, words) = List.hd rounds in
  (* Repro: shrink the broken-cas campaign's unshrunk certificate. *)
  let unshrunk =
    Lint.fuzz_target ~runs:broken_runs ~seed:base ~kind:pct ~shrink:false target
  in
  let resolved = Lepower_check.Repro_subject.of_target target in
  let shrink cert () =
    snd
      (Runtime.Repro.shrink
         ~failing:(fun v -> resolved.failing v <> None)
         ~config0:resolved.config cert)
  in
  (* A shrink takes tens of microseconds: timed in batches. *)
  let shrink_s, st =
    match unshrunk.cert with
    | Some cert ->
      let _, shrink_s =
        span ~parent:"fuzz-perm" "Repro.shrink batches" (fun () ->
            Measure.batched_median (fun () -> ignore (shrink cert ())))
      in
      (shrink_s, shrink cert ())
    | None ->
      tally "broken-cas unshrunk campaign" (Error "no violation found");
      (0., { Runtime.Repro.attempts = 0; original = 0; shrunk = 0 })
  in
  let wall = perm_s +. broken_s in
  {
    metrics =
      [
        ("fuzz.runs", Float.of_int perm.runs, "count");
        ("fuzz.steps", Float.of_int perm.steps, "count");
        ("fuzz.run_s", run_s, "s");
        ("fuzz.words_per_step", words /. Float.of_int (max 1 steps), "words");
        ("fuzz.overhead_s", perm_s -. run_s -. partial_s, "s");
        ("predicate.partial_s", partial_s, "s");
        ("repro.shrink_s", shrink_s, "s");
        ("repro.shrink_attempts", Float.of_int st.attempts, "count");
        ("repro.decisions_before", Float.of_int st.original, "count");
        ("repro.decisions_after", Float.of_int st.shrunk, "count");
      ];
    wall;
    layer_s = run_s +. partial_s +. shrink_s;
    cpus = 1;
    (* The default backend lowers nothing. *)
    lowering = None;
  }

(* The whole ladder, then the untraced job of [name] for the tracing
   overhead. *)
let run ~size ~seed name : Measure.result =
  spans := [];
  jobs.tried <- 0;
  jobs.missed <- 0;
  let n, predicate_ns = naive size in
  Gc.compact ();
  let r, (reduced_stats, costs, nprocs) = reduced size ~seed ~predicate_ns in
  Gc.compact ();
  let p =
    parallel size ~reduced_wall:r.wall ~reduced_stats ~costs ~n:nprocs
      ~predicate_ns
  in
  Gc.compact ();
  let f = fuzz size ~seed in
  let own =
    match name with
    | "naive-k9" -> n
    | "reduced-k12" -> r
    | "parallel-k12" -> p
    | _ -> f
  in
  (* Lowering of the named workload's instance. *)
  let config =
    match name with
    | "fuzz-perm" -> Election.config (perm_instance ())
    | _ -> Election.config (walk_instance name size)
  in
  let of_config_s =
    Measure.batched_median (fun () ->
        ignore (Sys.opaque_identity (Machine.of_config config)))
  in
  let low =
    Option.value own.lowering
      ~default:{ nodes = 0; hits = 0; misses = 0; bailed = 0 }
  in
  (* Tracing overhead: the same job, untraced, right after. *)
  Gc.compact ();
  let w = Workloads.make ~size ~seed name in
  let untraced_s, check = timed w.job in
  tally "untraced job" (check ());
  let metrics =
    n.metrics @ r.metrics @ p.metrics @ f.metrics
    @ [
        ("lowering.of_config_s", of_config_s, "s");
        ("lowering.nodes", Float.of_int low.nodes, "count");
        ("lowering.edge_hits", Float.of_int low.hits, "count");
        ("lowering.edge_misses", Float.of_int low.misses, "count");
        ("lowering.bailed", Float.of_int low.bailed, "count");
        ( "ladder.coverage_pct",
          100. *. own.layer_s /. (own.wall *. Float.of_int own.cpus),
          "%" );
        ( "trace.overhead_pct",
          100. *. (own.wall -. untraced_s) /. untraced_s,
          "%" );
      ]
  in
  prerr_endline
    (Json.to_string (Lepower_obs.Export.chrome_of_spans (List.rev !spans)));
  Measure.result_of jobs
    (List.map (fun (name, value, unit) -> { Measure.name; value; unit }) metrics)
    []
