(* Cross-backend equivalence: the mutable arena store against the
   persistent reference, and the compiled machine against the closure
   engine.  The arena/machine pair is the hot path of every campaign,
   so these tests pin the contract the speedup rests on: state-for-state
   store agreement through random op sequences (faults and snapshot/
   undo included), identical exploration statistics, decision sets and
   fuzz certificates in every mode, bit-for-bit certificate replay on
   either backend, and incremental fingerprint sums that match the
   from-scratch computation after every machine step. *)

module Value = Memory.Value
module Spec = Memory.Spec
module Store = Memory.Store
module Arena = Memory.Store.Arena
module Engine = Runtime.Engine
module Machine = Runtime.Engine.Machine
module Explore = Runtime.Explore
module Fingerprint = Runtime.Fingerprint

let value : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal

(* --- random op sequences: arena tracks the persistent store --- *)

(* A deterministic psuedo-random stream (splitmix-ish) so the sequence
   is reproducible from the seed alone. *)
let mk_rng seed =
  let state = ref (seed * 2654435769 + 1) in
  fun bound ->
    let s = !state in
    let s = s lxor (s lsl 13) in
    let s = s lxor (s lsr 7) in
    let s = s lxor (s lsl 17) in
    state := s;
    abs s mod bound

let zoo_bindings () =
  let open Objects.Zoo in
  [ rw_register; test_and_set; swap; cas 4; sticky_bit; fetch_add_mod 5 ]
  |> List.map (fun e -> (e.name, e.spec, Array.of_list e.ops))

let check_agree ~msg store arena =
  (* Every observation the rest of the system makes must agree. *)
  List.iter
    (fun (loc, v) ->
      Alcotest.(check (option value))
        (Printf.sprintf "%s: peek %s" msg loc)
        (Some v) (Arena.peek arena loc))
    (Store.state_bindings store);
  Alcotest.(check bool)
    (Printf.sprintf "%s: state_bindings" msg)
    true
    (Store.state_bindings store = Arena.state_bindings arena);
  Alcotest.(check int)
    (Printf.sprintf "%s: compare_states" msg)
    0
    (Store.compare_states store (Arena.to_store arena))

let test_random_ops () =
  let bindings = zoo_bindings () in
  let store0 =
    Store.create (List.map (fun (name, spec, _) -> (name, spec)) bindings)
  in
  let locs = Array.of_list (List.map (fun (name, _, _) -> name) bindings) in
  let ops = Array.of_list (List.map (fun (_, _, ops) -> ops) bindings) in
  let n_locs = Array.length locs in
  let sum_scratch bs =
    List.fold_left
      (fun acc (l, v) -> acc + Fingerprint.store_binding_hash l v)
      0 bs
  in
  List.iter
    (fun seed ->
      let rng = mk_rng seed in
      let arena = Arena.of_store store0 in
      let store = ref store0 in
      (* the store half of the fingerprint sum, maintained incrementally
         through pokes, freezes, ops and undos exactly as the reduced
         walk maintains it through step frames *)
      let sum = ref (sum_scratch (Store.state_bindings store0)) in
      (* a stack of (persistent snapshot, arena mark, sum) checkpoints *)
      let saves = ref [] in
      for i = 0 to 399 do
        let li = rng n_locs in
        let loc = locs.(li) in
        let msg = Printf.sprintf "seed %d op %d" seed i in
        (match rng 10 with
        | 0 ->
          (* poke both to the same (type-respecting) value: replay the
             object's init state *)
          let v = (List.nth bindings li |> fun (_, s, _) -> s).Spec.init in
          let old = Option.get (Arena.peek arena loc) in
          store := Store.poke !store loc v;
          Arena.poke arena loc v;
          sum :=
            !sum
            - Fingerprint.store_binding_hash loc old
            + Fingerprint.store_binding_hash loc v
        | 1 ->
          (* stuck-at fault: spec swapped, state binding untouched — no
             sum delta *)
          store := Store.freeze !store loc;
          Arena.freeze arena loc
        | 2 -> saves := (!store, Arena.mark arena, !sum) :: !saves
        | 3 -> (
          match !saves with
          | [] -> ()
          | (s, mk, sv) :: rest ->
            saves := rest;
            store := s;
            sum := sv;
            Arena.undo_to arena mk)
        | _ -> (
          let pid = rng 4 in
          let op = ops.(li).(rng (Array.length ops.(li))) in
          let old = Option.get (Arena.peek arena loc) in
          match (Store.apply !store ~pid loc op, Arena.apply arena ~pid loc op)
          with
          | Ok (store', rp), Ok ra ->
            store := store';
            Alcotest.check value (msg ^ ": result") rp ra;
            let nw = Option.get (Arena.peek arena loc) in
            sum :=
              !sum
              - Fingerprint.store_binding_hash loc old
              + Fingerprint.store_binding_hash loc nw
          | Error ep, Error ea ->
            Alcotest.(check string) (msg ^ ": error") ep ea
          | Ok _, Error e ->
            Alcotest.failf "%s: persistent Ok but arena Error %s" msg e
          | Error e, Ok _ ->
            Alcotest.failf "%s: persistent Error %s but arena Ok" msg e));
        check_agree ~msg !store arena;
        (* both backends agree binding-for-binding (just checked), so one
           from-scratch fold pins the incremental sum for both *)
        Alcotest.(check int)
          (msg ^ ": incremental store sum")
          (sum_scratch (Arena.state_bindings arena))
          !sum
      done)
    [ 1; 7; 42; 1994 ]

(* --- incremental fingerprint sums from the machine's step delta --- *)

let cas_instance = Protocols.Cas_election.instance ~k:4 ~n:3

(* The property the journal-free reduced walk rests on (DESIGN.md §7):
   fingerprint sums maintained in O(1) from each move's delta equal the
   from-scratch computation — through ordinary steps, decides, crashes,
   stuck-at freezes and lost writes — on {e both} backends, with the
   machine staying digest-lockstep with the persistent engine under the
   same schedule. *)
let test_incremental_sums () =
  List.iter
    (fun seed ->
      let config0 = Protocols.Election.config cas_instance in
      let n = Array.length config0.Engine.procs in
      let locs = Array.of_list (Store.locs config0.Engine.store) in
      let m = Machine.of_config config0 in
      let pc = ref config0 in
      let histories = Array.make n Fingerprint.history_empty in
      let store_sum0, proc_sum0 = Fingerprint.sums config0 histories in
      let store_sum = ref store_sum0 and proc_sum = ref proc_sum0 in
      let rng = mk_rng seed in
      for i = 0 to 299 do
        (match Machine.enabled m with
        | [] -> ()
        | en ->
          let pid = List.nth en (rng (List.length en)) in
          let status_before = Machine.status m pid in
          let hist_before = histories.(pid) in
          (* one process's history (and possibly status) changed *)
          let bump_proc () =
            proc_sum :=
              !proc_sum
              - Fingerprint.proc_hash ~pid status_before hist_before
              + Fingerprint.proc_hash ~pid (Machine.status m pid)
                  histories.(pid)
          in
          let record_event ~store_delta =
            if Machine.last_step_event m then begin
              let loc = Machine.last_loc m in
              if store_delta then
                store_sum :=
                  !store_sum
                  - Fingerprint.store_binding_hash loc
                      (Machine.last_old_state m)
                  + Fingerprint.store_binding_hash loc
                      (Machine.last_new_state m);
              histories.(pid) <-
                Fingerprint.history_extend_op histories.(pid) ~loc
                  ~op:(Machine.last_op m) ~result:(Machine.last_result m)
            end
          in
          match rng 12 with
          | 0 ->
            Machine.crash m pid;
            pc := Engine.crash !pc pid;
            bump_proc ()
          | 1 ->
            (* stuck-at freeze replaces a spec but no state binding, so
               the canonical fingerprint — states, statuses, histories —
               sees no delta at all *)
            let loc = locs.(rng (Array.length locs)) in
            Machine.freeze m loc;
            pc := { !pc with Engine.store = Store.freeze !pc.Engine.store loc }
          | 2 ->
            (* lost write: the event (and so the history term) happens,
               the store delta does not *)
            Machine.step_lost m pid;
            pc := Engine.step_lost !pc pid;
            record_event ~store_delta:false;
            bump_proc ()
          | _ ->
            Machine.step m pid;
            pc := Engine.step !pc pid;
            record_event ~store_delta:true;
            bump_proc ());
        let s, p = Fingerprint.sums (Machine.config m) histories in
        Alcotest.(check int)
          (Printf.sprintf "seed %d move %d: arena store sum" seed i)
          s !store_sum;
        Alcotest.(check int)
          (Printf.sprintf "seed %d move %d: arena proc sum" seed i)
          p !proc_sum;
        let s', p' = Fingerprint.sums !pc histories in
        Alcotest.(check int)
          (Printf.sprintf "seed %d move %d: persistent store sum" seed i)
          s' !store_sum;
        Alcotest.(check int)
          (Printf.sprintf "seed %d move %d: persistent proc sum" seed i)
          p' !proc_sum;
        Alcotest.(check bool)
          (Printf.sprintf "seed %d move %d: combine non-negative" seed i)
          true
          (Fingerprint.combine ~store_sum:!store_sum ~proc_sum:!proc_sum >= 0)
      done;
      (* the per-location seed identity the hot loop's precomputed
         [store_seed] array relies on *)
      List.iter
        (fun (loc, v) ->
          Alcotest.(check int)
            (Printf.sprintf "seed %d: store_seed identity at %s" seed loc)
            (Fingerprint.store_binding_hash loc v)
            (Value.hash_fold (Fingerprint.store_seed loc) v))
        (Store.state_bindings !pc.Engine.store);
      Alcotest.(check string)
        (Printf.sprintf "seed %d: final digest lockstep" seed)
        (Fingerprint.digest !pc)
        (Fingerprint.digest (Machine.config m)))
    [ 13; 99; 4096 ]

(* --- whole-space agreement across backends --- *)

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

let test_explore_stats_agree () =
  List.iter
    (fun (mode, dedup, por) ->
      let stats backend =
        Protocols.Election.explore_stats cas_instance ~max_steps:60
          ~options:(opts ~dedup ~por backend)
      in
      let sp = stats Engine.Persistent and sa = stats Engine.Arena in
      (match sp with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: persistent verdict: %s" mode e);
      Alcotest.(check bool)
        (mode ^ ": stats identical across backends")
        true (sp = sa))
    modes

let test_decision_sets_agree () =
  let config = Protocols.Election.config cas_instance in
  List.iter
    (fun (mode, dedup, por) ->
      let sets backend =
        Explore.decision_sets ~options:(opts ~dedup ~por backend) config
      in
      Alcotest.(check bool)
        (mode ^ ": decision sets identical across backends")
        true
        (sets Engine.Persistent = sets Engine.Arena))
    modes

let test_verify_backend () =
  (* The lockstep debug flag shadows every machine move with the
     persistent reference and fails on the first divergence.  In every
     mode, naive included, it runs on the journal-free frame walk, so
     this also checks that walk's moves step for step against the
     reference. *)
  List.iter
    (fun (mode, dedup, por) ->
      let stats =
        Protocols.Election.explore_stats cas_instance ~max_steps:60
          ~options:
            { (opts ~dedup ~por Engine.Arena) with verify_backend = true }
      in
      match stats with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: verify_backend run failed: %s" mode e)
    modes

(* An object whose responses count its own invocations: [apply] is
   impure, so the machine (which memoizes each transition after its
   first visit) and the persistent reference (which re-applies the spec
   every time) see different responses for the same operation. *)
let impure_config () =
  let calls = ref 0 in
  let spec =
    Spec.make ~type_name:"impure-counter" ~init:(Value.int 0)
      ~apply:(fun ~pid:_ state _op ->
        incr calls;
        Ok (state, Value.int !calls))
  in
  let prog =
    let open Runtime.Program in
    complete
      (let* a = op "x" (Value.sym "read") in
       let* _ = op "x" (Value.sym "read") in
       return a)
  in
  Engine.init (Store.create [ ("x", spec) ]) [ prog; prog; prog ]

let test_verify_backend_trips () =
  (* The flag must be able to fail: over the impure object above every
     mode raises the divergence [Failure], while the same run without
     the flag completes. *)
  List.iter
    (fun (mode, dedup, por) ->
      let options =
        { (opts ~dedup ~por Engine.Arena) with crash_faults = false }
      in
      ignore (Explore.explore ~options (impure_config ()));
      match
        Explore.explore
          ~options:{ options with verify_backend = true }
          (impure_config ())
      with
      | _ -> Alcotest.failf "%s: verify_backend missed the divergence" mode
      | exception Failure msg ->
        Alcotest.(check bool)
          (mode ^ ": divergence reported")
          true
          (String.starts_with
             ~prefix:"Explore: arena backend diverged from the persistent"
             msg))
    modes

let test_wide_fallback () =
  (* Sleep bitsets hold one bit per step and per crash move, so beyond
     31 processes the reduced and verified arena modes run on the
     persistent reference — no machine is built, so [on_lowering] stays
     silent.  A 32-process election with all but three processes crashed
     up front keeps [crash_faults] enumerable (crash moves do not
     consume the step bound, so 32 crash-able processes would reach
     2^32 crash subsets); [max_steps = 2] truncates after two levels. *)
  let instance = Protocols.Cas_election.instance ~k:33 ~n:32 in
  let config =
    let c = ref (Protocols.Election.config instance) in
    for pid = 0 to 28 do
      c := Engine.crash !c pid
    done;
    !c
  in
  List.iter
    (fun (mode, dedup, por, verify_backend) ->
      let options backend =
        { (opts ~dedup ~por backend) with max_steps = 2; verify_backend }
      in
      let lowered = ref false in
      let sa =
        Explore.explore
          ~options:
            {
              (options Engine.Arena) with
              on_lowering = Some (fun _ -> lowered := true);
            }
          config
      in
      Alcotest.(check bool)
        (mode ^ ": stats identical across backends")
        true
        (Explore.explore ~options:(options Engine.Persistent) config = sa);
      Alcotest.(check bool)
        (mode ^ ": decision sets identical across backends")
        true
        (Explore.decision_sets ~options:(options Engine.Persistent) config
        = Explore.decision_sets ~options:(options Engine.Arena) config);
      Alcotest.(check bool) (mode ^ ": no machine built") false !lowered)
    [
      ("dedup", true, false, false);
      ("por", false, true, false);
      ("dedup+por", true, true, false);
      ("verify", false, false, true);
    ]

(* --- fuzz certificates: pinned, replay on the reference --- *)

(* MD5 of the certificate's JSON with the informational [version] field
   blanked: the certificate a campaign stepping the persistent engine
   emits for these seeds.  The machine must make the same scheduler and
   fault-roll calls and reach the same states to reproduce it. *)
let fuzz_cert_pin = "f79cfaa776ecf8cb7a6a90fe37a5a19e"

let cert_digest (c : Runtime.Repro.t) =
  Digest.to_hex
    (Digest.string
       (Lepower_obs.Json.to_string
          (Runtime.Repro.to_json { c with Runtime.Repro.version = "" })))

let test_fuzz_certs_agree () =
  let o =
    Protocols.Election.fuzz ~runs:256 ~seed:1 ~plan:Runtime.Faults.default
      ~kind:Runtime.Fuzz.Random_walk ~shrink:false cas_instance
  in
  match o.Runtime.Fuzz.cert with
  | None -> Alcotest.fail "fault fuzz finds no violation"
  | Some cert ->
    Alcotest.(check string) "certificate digest" fuzz_cert_pin
      (cert_digest cert);
    match Runtime.Repro.replay cert (Protocols.Election.config cas_instance) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "replay: %s" e

(* --- closure interpretation: fuzz run == engine, digest-for-digest --- *)

let test_fallback_digest () =
  (* A fuzz run builds its machine with no lowering, so every pid runs
     the closure interpreter over the arena after its first step.  With
     no fault plan and the random kind it makes the same
     [Sched.random ~seed] calls as the persistent engine, so its final
     state must be digest-identical.  A cas process decides after one
     step; perm-election processes take several, so the interpreter
     runs. *)
  let perm = Protocols.Permutation_election.instance ~k:4 ~n:6 in
  List.iter
    (fun (inst, seed) ->
      let config () = Protocols.Election.config inst in
      let dp =
        Fingerprint.digest
          (Engine.run ~max_steps:400 ~sched:(Runtime.Sched.random ~seed)
             (config ()))
            .Engine.final
      in
      let da =
        Fingerprint.digest
          (Runtime.Fuzz.run ~max_steps:400 ~kind:Runtime.Fuzz.Random_walk
             ~seed (config ()))
            .Runtime.Fuzz.final
      in
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d: fallback digest"
           inst.Protocols.Election.name seed)
        dp da)
    (List.concat_map
       (fun inst -> List.map (fun seed -> (inst, seed)) [ 0; 1; 2; 3 ])
       [ cas_instance; perm ])

(* --- the engine's read classification matches the specs --- *)

let test_is_read_consistent () =
  (* [Op_codec.is_read] feeds the machine's [access]/POR read
     classification, so a misclassified mutating op would unsoundly
     commute.  Cross-check against the specs themselves: an op deemed a
     read must never change any reachable state of any zoo object. *)
  List.iter
    (fun (e : Objects.Zoo.entry) ->
      (* breadth-first closure of reachable states under the op universe,
         bounded — the zoo objects are tiny *)
      let seen = ref [ e.spec.Spec.init ] in
      let frontier = ref [ e.spec.Spec.init ] in
      let budget = ref 200 in
      while !frontier <> [] && !budget > 0 do
        decr budget;
        let state = List.hd !frontier in
        frontier := List.tl !frontier;
        List.iter
          (fun op ->
            match Spec.apply e.spec ~pid:0 state op with
            | Error _ -> ()
            | Ok (state', _) ->
              (if Objects.Op_codec.is_read op then
                 Alcotest.(check bool)
                   (Printf.sprintf "%s: read op leaves state unchanged" e.name)
                   true
                   (Value.equal state state'));
              if not (List.exists (Value.equal state') !seen) then begin
                seen := state' :: !seen;
                frontier := state' :: !frontier
              end)
          e.ops
      done)
    (Objects.Zoo.all ())

let () =
  Alcotest.run "store"
    [
      ( "arena-equivalence",
        [
          Alcotest.test_case "random op sequences" `Quick test_random_ops;
        ] );
      ( "incremental-fingerprint",
        [
          Alcotest.test_case "machine step delta" `Quick test_incremental_sums;
        ] );
      ( "cross-backend",
        [
          Alcotest.test_case "explore stats" `Quick test_explore_stats_agree;
          Alcotest.test_case "decision sets" `Quick test_decision_sets_agree;
          Alcotest.test_case "verify-backend lockstep" `Quick
            test_verify_backend;
          Alcotest.test_case "verify-backend trips on divergence" `Quick
            test_verify_backend_trips;
          Alcotest.test_case "over 31 processes" `Quick test_wide_fallback;
          Alcotest.test_case "fuzz certificates" `Quick test_fuzz_certs_agree;
          Alcotest.test_case "forced fallback digest" `Quick
            test_fallback_digest;
        ] );
      ( "op-classification",
        [
          Alcotest.test_case "is_read vs specs" `Quick test_is_read_consistent;
        ] );
    ]
