(* Engine.Config_view: the backend-neutral read surface every checker
   now goes through.  Three contracts are pinned here:

   - accessor equivalence: on lockstep random walks the zero-copy
     machine-backed view, the persistent-config view and the
     materializing fallback agree on every accessor;
   - digest-pinned verdicts: check_all verdicts (stats and violations
     alike) and decision sets are byte-identical across backends in
     every reduction mode — including the journal-free reduced arena
     walk the dedup/por/dedup+por modes dispatch to;
   - the soundness guard: an order-inspecting predicate under dedup/por
     raises Unsound_predicate, order-free predicates and unreduced runs
     never do. *)

module Value = Memory.Value
module Store = Memory.Store
module Engine = Runtime.Engine
module Machine = Runtime.Engine.Machine
module View = Runtime.Engine.Config_view
module Explore = Runtime.Explore
module Fuzz = Runtime.Fuzz
module Fingerprint = Runtime.Fingerprint
module Election = Protocols.Election

let value : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal

let mk_rng seed =
  let state = ref ((seed * 2654435769) + 1) in
  fun bound ->
    let s = !state in
    let s = s lxor (s lsl 13) in
    let s = s lxor (s lsr 7) in
    let s = s lxor (s lsl 17) in
    state := s;
    abs s mod bound

let cas_instance = Protocols.Cas_election.instance ~k:4 ~n:3

(* No_sharing: the two backends build structurally equal values with
   different physical sharing; the digest must only see the structure. *)
let digest_of x =
  Digest.to_hex (Digest.string (Marshal.to_string x [ Marshal.No_sharing ]))

(* --- accessor equivalence on seeded random walks --- *)

let check_views_agree ~msg ~locs va vb =
  let n = View.n_procs va in
  Alcotest.(check int) (msg ^ ": n_procs") n (View.n_procs vb);
  Alcotest.(check int) (msg ^ ": time") (View.time va) (View.time vb);
  Alcotest.(check bool)
    (msg ^ ": has_running")
    (View.has_running va) (View.has_running vb);
  Alcotest.(check int)
    (msg ^ ": max_steps_per_proc")
    (View.max_steps_per_proc va)
    (View.max_steps_per_proc vb);
  List.iter
    (fun bound ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: over_step_bound %d" msg bound)
        true
        (View.over_step_bound va bound = View.over_step_bound vb bound))
    [ 0; 2; 1000 ];
  for pid = 0 to n - 1 do
    let p = Printf.sprintf "%s pid %d" msg pid in
    Alcotest.(check bool)
      (p ^ ": status") true
      (View.status va pid = View.status vb pid);
    Alcotest.(check bool)
      (p ^ ": is_running")
      (View.is_running va pid) (View.is_running vb pid);
    Alcotest.(check int) (p ^ ": steps") (View.steps va pid)
      (View.steps vb pid);
    Alcotest.(check bool)
      (p ^ ": stepped")
      (View.stepped va pid) (View.stepped vb pid);
    Alcotest.(check (option value))
      (p ^ ": decision") (View.decision va pid) (View.decision vb pid);
    Alcotest.(check bool)
      (p ^ ": events_of") true
      (View.events_of va pid = View.events_of vb pid)
  done;
  Alcotest.(check bool)
    (msg ^ ": decisions") true
    (View.decisions va = View.decisions vb);
  Alcotest.(check (list value))
    (msg ^ ": decision_values")
    (View.decision_values va)
    (View.decision_values vb);
  Alcotest.(check (list value))
    (msg ^ ": distinct_decisions")
    (View.distinct_decisions va)
    (View.distinct_decisions vb);
  Alcotest.(check bool)
    (msg ^ ": faults") true
    (View.faults va = View.faults vb);
  List.iter
    (fun loc ->
      Alcotest.(check (option value))
        (Printf.sprintf "%s: store_state %s" msg loc)
        (View.store_state va loc) (View.store_state vb loc);
      Alcotest.(check bool)
        (Printf.sprintf "%s: mem_loc %s" msg loc)
        (View.mem_loc va loc) (View.mem_loc vb loc))
    locs;
  Alcotest.(check bool)
    (msg ^ ": state_bindings")
    true
    (View.state_bindings va = View.state_bindings vb);
  Alcotest.(check int)
    (msg ^ ": trace_length")
    (View.trace_length va) (View.trace_length vb);
  (* the ordered accessors last: they mark the view as order-accessed *)
  Alcotest.(check bool)
    (msg ^ ": trace") true
    (View.trace va = View.trace vb);
  Alcotest.(check bool)
    (msg ^ ": last_event") true
    (View.last_event va = View.last_event vb);
  Alcotest.(check string)
    (msg ^ ": config digest")
    (Fingerprint.digest (View.config va))
    (Fingerprint.digest (View.config vb))

let test_accessors_agree () =
  List.iter
    (fun seed ->
      let config0 = Election.config cas_instance in
      let locs = "?" :: Store.locs config0.Engine.store in
      let m = Machine.of_config config0 in
      let c = ref config0 in
      let rng = mk_rng seed in
      let steps = ref 0 in
      let continue = ref true in
      while !continue && !steps < 150 do
        (match Machine.enabled m with
        | [] -> continue := false
        | en ->
          let pid = List.nth en (rng (List.length en)) in
          Machine.step m pid;
          c := Engine.step !c pid;
          incr steps);
        if (!steps mod 10 = 0 && !steps > 0) || not !continue then begin
          let msg = Printf.sprintf "seed %d step %d" seed !steps in
          (* machine-backed view vs the lockstep persistent walk *)
          check_views_agree ~msg:(msg ^ " (machine vs persistent)") ~locs
            (View.of_machine m)
            (View.of_config !c);
          (* machine-backed view vs its own materializing fallback *)
          check_views_agree ~msg:(msg ^ " (machine vs fallback)") ~locs
            (View.of_machine m)
            (View.of_config (Machine.config m))
        end
      done)
    [ 1; 7; 42 ]

(* --- digest-pinned cross-backend verdicts --- *)

let modes =
  [
    ("naive", false, false);
    ("dedup", true, false);
    ("por", false, true);
    ("dedup+por", true, true);
  ]

let opts ~dedup ~por backend =
  {
    Explore.Options.default with
    crash_faults = true;
    max_steps = 60;
    dedup;
    por;
    backend;
  }

let test_check_all_digests () =
  let config = Election.config cas_instance in
  List.iter
    (fun (mode, dedup, por) ->
      let verdict backend =
        Explore.check_all
          ~options:(opts ~dedup ~por backend)
          config
          (Election.check_config cas_instance)
      in
      let vp = verdict Engine.Persistent in
      (match vp with
      | Ok _ -> ()
      | Error v -> Alcotest.failf "%s: persistent verdict: %s" mode
                     v.Explore.message);
      Alcotest.(check string)
        (mode ^ ": check_all verdicts byte-identical across backends")
        (digest_of vp)
        (digest_of (verdict Engine.Arena)))
    modes

let test_decision_set_digests () =
  let config = Election.config cas_instance in
  List.iter
    (fun (mode, dedup, por) ->
      let sets backend =
        Explore.decision_sets ~options:(opts ~dedup ~por backend) config
      in
      Alcotest.(check string)
        (mode ^ ": decision sets byte-identical across backends")
        (digest_of (sets Engine.Persistent))
        (digest_of (sets Engine.Arena)))
    modes

(* --- the trace-order soundness guard --- *)

let guard_opts ?(analyze = None) ~dedup backend =
  { Explore.Options.default with max_steps = 60; dedup; backend; analyze }

let test_guard_trips_on_order_access () =
  let config = Election.config cas_instance in
  let peeking view =
    ignore (View.trace view);
    Ok ()
  in
  List.iter
    (fun backend ->
      let name = Engine.backend_name backend in
      (* inspecting the trace under dedup is unsound: fail loudly *)
      (match
         Explore.check_all ~options:(guard_opts ~dedup:true backend) config
           peeking
       with
      | exception Explore.Unsound_predicate _ -> ()
      | _ -> Alcotest.failf "%s: dedup + trace access must raise" name);
      (* the same predicate on the unreduced walk is fine *)
      (match
         Explore.check_all ~options:(guard_opts ~dedup:false backend) config
           peeking
       with
      | Ok _ -> ()
      | Error v -> Alcotest.failf "%s: unreduced: %s" name v.Explore.message
      | exception Explore.Unsound_predicate m ->
        Alcotest.failf "%s: guard fired without reductions: %s" name m))
    [ Engine.Persistent; Engine.Arena ]

let test_guard_ignores_order_free_predicates () =
  let config = Election.config cas_instance in
  let order_free view =
    (* per-pid projections and flat state reads are commutation-sound,
       so they must not trip the guard even under dedup+por *)
    ignore (View.decision_values view);
    ignore (View.events_of view 0);
    ignore (View.trace_length view);
    ignore (View.state_bindings view);
    Ok ()
  in
  let options =
    { (guard_opts ~dedup:true Engine.Arena) with Explore.Options.por = true }
  in
  match Explore.check_all ~options config order_free with
  | Ok _ -> ()
  | Error v -> Alcotest.fail v.Explore.message
  | exception Explore.Unsound_predicate m ->
    Alcotest.failf "guard fired on an order-free predicate: %s" m

let test_guard_sees_analyze_hook () =
  (* the analyze hook shares the predicate's view, so its order
     accesses are caught too *)
  let config = Election.config cas_instance in
  let analyze = Some (fun view -> ignore (View.last_event view)) in
  match
    Explore.check_all
      ~options:(guard_opts ~analyze ~dedup:true Engine.Persistent)
      config
      (fun _ -> Ok ())
  with
  | exception Explore.Unsound_predicate _ -> ()
  | _ -> Alcotest.fail "dedup + order-accessing analyze hook must raise"

(* --- the single-pass terminal check --- *)

(* [Election.check_config] as it was before [View.settle]: the list-based
   checker, kept here as the reference oracle the fast path must match
   verdict for verdict and message for message. *)
let reference_check (t : Election.instance) view =
  let faults = View.faults view in
  let distinct = View.distinct_decisions view in
  let over_bound = View.over_step_bound view t.Election.step_bound in
  match (faults, View.has_running view, distinct, over_bound) with
  | (pid, m) :: _, _, _, _ ->
    Error (Printf.sprintf "process %d faulty: %s" pid m)
  | [], true, _, _ ->
    Error "some live process did not decide (run incomplete?)"
  | [], false, [], _ -> Ok ()
  | [], false, _ :: _ :: _, _ ->
    Error
      (Fmt.str "agreement violated: decisions %a"
         Fmt.(list ~sep:(any ", ") Value.pp)
         (List.sort Value.compare distinct))
  | [], false, [ _ ], Some (pid, steps) ->
    Error
      (Printf.sprintf
         "wait-freedom bound exceeded: process %d took %d > %d steps" pid
         steps t.Election.step_bound)
  | [], false, [ leader ], None ->
    let pid = match leader with Value.Int i -> i | _ -> -1 in
    if pid < 0 || pid >= t.Election.n then
      Error (Fmt.str "elected identity %a is not a process id" Value.pp leader)
    else if not (View.stepped view pid) then
      Error
        (Printf.sprintf "validity violated: leader %d never took a step" pid)
    else Ok ()

let verdict : (unit, string) result Alcotest.testable =
  Alcotest.(result unit string)

let check_matches_reference ~msg t view =
  Alcotest.check verdict msg (reference_check t view)
    (Election.check_config t view)

let broken_cas_instance =
  let fx = Lepower_check.Lint.broken_cas_fixture () in
  {
    Election.name = fx.Lepower_check.Lint.name;
    n = List.length fx.Lepower_check.Lint.programs;
    bindings = fx.Lepower_check.Lint.bindings;
    program = List.nth fx.Lepower_check.Lint.programs;
    step_bound = fx.Lepower_check.Lint.budget;
  }

let test_check_config_matches_reference () =
  List.iter
    (fun (name, inst, crash_faults, max_steps) ->
      List.iter
        (fun backend ->
          let terminals = ref 0 and errors = ref 0 in
          let on_terminal view =
            incr terminals;
            if Result.is_error (reference_check inst view) then incr errors;
            check_matches_reference
              ~msg:(Printf.sprintf "%s %s terminal %d" name
                      (Engine.backend_name backend) !terminals)
              inst view
          in
          ignore
            (Explore.explore
               ~options:
                 {
                   Explore.Options.default with
                   crash_faults;
                   max_steps;
                   backend;
                   on_terminal = Some on_terminal;
                 }
               (Election.config inst));
          Alcotest.(check bool) (name ^ ": walked some terminals") true
            (!terminals > 0);
          if name = "broken-cas" then
            Alcotest.(check bool) (name ^ ": hit violations") true
              (!errors > 0))
        [ Engine.Persistent; Engine.Arena ])
    [
      ("cas", cas_instance, true, 60);
      ("bcl", Protocols.Bcl_election.instance ~k:3 ~n:2, true, 60);
      (* The naive walks of two-process perm- and multi-election run to
         millions of leaves before any process decides, so these two
         walk one process, every crash placement included. *)
      ("perm", Protocols.Permutation_election.instance ~k:3 ~n:1, true, 60);
      ("multi", Protocols.Multi_election.instance ~ks:[ 3; 2 ] ~n:1, true, 60);
      ("broken-cas", broken_cas_instance, true, 60);
    ]

(* Hand-built terminal states, one per branch of the checker, each read
   through a persistent and a machine-backed view. *)
let test_check_config_branches () =
  let t = cas_instance in
  let base = Election.config t in
  let with_procs procs =
    {
      base with
      Engine.procs =
        Array.mapi
          (fun pid (steps, status) ->
            { (base.Engine.procs.(pid)) with Runtime.Proc.steps; status })
          (Array.of_list procs);
    }
  in
  let d i = Runtime.Proc.Decided (Value.Int i) in
  let over = t.Election.step_bound + 1 in
  let cases =
    [
      ( "faulty",
        [ (1, d 0); (1, Runtime.Proc.Faulty "boom"); (1, d 0) ],
        Error "process 1 faulty: boom" );
      ( "still running",
        [ (1, d 0); (1, d 0); (0, Runtime.Proc.Running) ],
        Error "some live process did not decide (run incomplete?)" );
      ( "nobody decided",
        [
          (over, Runtime.Proc.Crashed);
          (0, Runtime.Proc.Crashed);
          (1, Runtime.Proc.Crashed);
        ],
        Ok () );
      ( "agreement violated",
        [ (1, d 1); (1, d 0); (0, Runtime.Proc.Crashed) ],
        Error "agreement violated: decisions 0, 1" );
      ( "step bound exceeded",
        [ (1, d 0); (over, d 0); (1, Runtime.Proc.Crashed) ],
        Error
          (Printf.sprintf
             "wait-freedom bound exceeded: process 1 took %d > %d steps" over
             t.Election.step_bound) );
      ( "leader not a pid",
        [ (1, d 7); (1, d 7); (1, d 7) ],
        Error "elected identity 7 is not a process id" );
      ( "leader not an int",
        [
          (1, Runtime.Proc.Decided (Value.sym "x"));
          (1, Runtime.Proc.Crashed);
          (0, Runtime.Proc.Crashed);
        ],
        Error "elected identity :x is not a process id" );
      ( "leader never stepped",
        [ (1, d 2); (1, d 2); (0, Runtime.Proc.Crashed) ],
        Error "validity violated: leader 2 never took a step" );
      ("satisfied", [ (0, Runtime.Proc.Crashed); (1, d 1); (1, d 1) ], Ok ());
    ]
  in
  List.iter
    (fun (name, procs, expected) ->
      let c = with_procs procs in
      List.iter
        (fun (backend, view) ->
          let msg = name ^ " (" ^ backend ^ ")" in
          Alcotest.check verdict msg expected (Election.check_config t view);
          check_matches_reference ~msg:(msg ^ " vs reference") t view)
        [
          ("persistent", View.of_config c);
          ("machine", View.of_machine (Machine.of_config c));
        ])
    cases

(* The arena walks hand every leaf the same view, reset in between: at
   each hook it must be unmarked and must materialize the current leaf,
   not a trace or configuration cached at an earlier one. *)
let test_reused_view_is_fresh () =
  let config = Election.config cas_instance in
  List.iter
    (fun (mode, dedup, por) ->
      List.iter
        (fun max_steps ->
          let leaves backend =
            let acc = ref [] in
            let leaf view =
              let fresh = not (View.order_accessed view) in
              let trace = View.trace view in
              acc :=
                (fresh, trace, Fingerprint.digest (View.config view)) :: !acc
            in
            ignore
              (Explore.explore
                 ~options:
                   {
                     (opts ~dedup ~por backend) with
                     max_steps;
                     on_terminal = Some leaf;
                     on_truncated = Some leaf;
                   }
                 config);
            List.rev !acc
          in
          let msg = Printf.sprintf "%s max_steps %d" mode max_steps in
          let arena = leaves Engine.Arena in
          Alcotest.(check bool) (msg ^ ": unmarked at every leaf") true
            (List.for_all (fun (fresh, _, _) -> fresh) arena);
          Alcotest.(check bool)
            (msg ^ ": every leaf's trace and config match the persistent walk")
            true
            (arena = leaves Engine.Persistent))
        [ 3; 60 ])
    modes

(* The checked arena walk allocates nothing per configuration: a closure
   or boxed value re-introduced into any per-leaf accessor, the
   predicate or the walker's hooks shows up here as whole words per
   configuration. *)
let test_checked_walk_allocation () =
  let t = Protocols.Cas_election.instance ~k:8 ~n:7 in
  let options =
    { Explore.Options.default with crash_faults = true; backend = Engine.Arena }
  in
  let before = Gc.minor_words () in
  let stats =
    match Election.explore_stats ~options t ~max_steps:10_000 with
    | Ok stats -> stats
    | Error m -> Alcotest.fail m
  in
  let words = Gc.minor_words () -. before in
  let per_config = words /. float_of_int stats.Explore.configs_visited in
  if per_config >= 0.05 then
    Alcotest.failf "%.0f minor words for %d configurations (%.3f each)" words
      stats.Explore.configs_visited per_config

let () =
  Alcotest.run "view"
    [
      ( "equivalence",
        [
          Alcotest.test_case "accessors on random walks" `Quick
            test_accessors_agree;
        ] );
      ( "digest-pinned",
        [
          Alcotest.test_case "check_all verdicts" `Quick
            test_check_all_digests;
          Alcotest.test_case "decision sets" `Quick test_decision_set_digests;
        ] );
      ( "terminal-check",
        [
          Alcotest.test_case "matches the list-based reference" `Quick
            test_check_config_matches_reference;
          Alcotest.test_case "every verdict branch" `Quick
            test_check_config_branches;
          Alcotest.test_case "checked arena walk allocation-free" `Quick
            test_checked_walk_allocation;
          Alcotest.test_case "reused leaf view is fresh" `Quick
            test_reused_view_is_fresh;
        ] );
      ( "soundness-guard",
        [
          Alcotest.test_case "order access under dedup raises" `Quick
            test_guard_trips_on_order_access;
          Alcotest.test_case "order-free predicates pass" `Quick
            test_guard_ignores_order_free_predicates;
          Alcotest.test_case "analyze hook shares the view" `Quick
            test_guard_sees_analyze_hook;
        ] );
    ]
