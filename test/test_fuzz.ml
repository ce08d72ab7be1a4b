(* Tests for Runtime.Fuzz and the fault plane: determinism of seeded
   campaigns across every scheduler kind, fault semantics (lost writes,
   stuck-at registers), and the headline property — a fuzz-found
   certificate replays bit for bit with its faults re-injected. *)

module Value = Memory.Value
module Store = Memory.Store
module Engine = Runtime.Engine
module Sched = Runtime.Sched
module Repro = Runtime.Repro
module Faults = Runtime.Faults
module Fuzz = Runtime.Fuzz
module Fingerprint = Runtime.Fingerprint
module Lint = Lepower_check.Lint
module Subject = Lepower_check.Repro_subject
module Election = Protocols.Election

let kinds =
  [
    Fuzz.Random_walk;
    Fuzz.Pct { depth = 3 };
    Fuzz.Starve { victim = 0; stall = 4 };
  ]

(* --- determinism: same seed => identical log and digest --------------- *)

let test_run_determinism () =
  let resolved = Subject.of_target (Lint.broken_cas_fixture ~flip:true ()) in
  List.iter
    (fun kind ->
      let name = Fuzz.kind_name kind in
      let go () =
        Fuzz.run ~max_steps:200 ~plan:Faults.default ~kind ~seed:42
          resolved.Subject.config
      in
      let r1 = go () and r2 = go () in
      Alcotest.(check bool)
        (name ^ ": identical decision logs") true
        (r1.Fuzz.decisions = r2.Fuzz.decisions);
      Alcotest.(check string)
        (name ^ ": identical final digests")
        (Fingerprint.digest r1.Fuzz.final)
        (Fingerprint.digest r2.Fuzz.final))
    kinds

let test_campaign_cert_determinism () =
  let target = Lint.broken_cas_fixture ~flip:true () in
  List.iter
    (fun kind ->
      let name = Fuzz.kind_name kind in
      let go () = Lint.fuzz_target ~kind ~runs:64 ~seed:1 target in
      let o1 = go () and o2 = go () in
      match (o1.Fuzz.cert, o2.Fuzz.cert) with
      | Some c1, Some c2 ->
        Alcotest.(check bool)
          (name ^ ": identical certificates (digests included)")
          true (c1 = c2);
        Alcotest.(check bool)
          (name ^ ": same run found it") true
          (o1.Fuzz.first_violation = o2.Fuzz.first_violation)
      | _ -> Alcotest.failf "%s: campaign found no violation" name)
    kinds

(* --- the seeded bugs are found and the certificates replay ------------ *)

let test_finds_flip_fixtures () =
  List.iter
    (fun target ->
      let outcome =
        Lint.fuzz_target ~kind:(Fuzz.Pct { depth = 3 }) ~runs:64 ~seed:1
          target
      in
      match outcome.Fuzz.cert with
      | None -> Alcotest.failf "%s: bug not found" target.Lint.name
      | Some cert -> (
        (* Resolve the certificate's own subject, as `lepower replay`
           would, and check the replayed final still fails. *)
        match Subject.resolve cert.Repro.subject with
        | Error e -> Alcotest.failf "%s: subject: %s" target.Lint.name e
        | Ok resolved -> (
          match Repro.replay cert resolved.Subject.config with
          | Error e -> Alcotest.failf "%s: replay: %s" target.Lint.name e
          | Ok final ->
            Alcotest.(check bool)
              (target.Lint.name ^ ": replayed final still fails")
              true
              (resolved.Subject.failing (Engine.Config_view.of_config final) <> None))))
    [ Lint.broken_cas_fixture ~flip:true (); Lint.broken_swmr_fixture ~flip:true () ]

(* --- fault semantics -------------------------------------------------- *)

let counter_spec =
  Memory.Spec.make ~type_name:"counter" ~init:(Value.int 0)
    ~apply:(fun ~pid:_ s op ->
      match op with
      | Value.Sym "incr" -> Ok (Value.int (Value.as_int s + 1), s)
      | Value.Sym "read" -> Ok (s, s)
      | _ -> Error "bad op")

let incr_and_read =
  let open Runtime.Program in
  complete
    (let* _ = op "c" (Value.sym "incr") in
     op "c" (Value.sym "read"))

let config () =
  Engine.init
    (Store.create [ ("c", counter_spec) ])
    [ incr_and_read; incr_and_read ]

let test_freeze_semantics () =
  let store = Store.create [ ("c", counter_spec) ] in
  let frozen = Store.freeze store "c" in
  (match Store.apply frozen ~pid:0 "c" (Value.sym "incr") with
  | Error e -> Alcotest.failf "frozen incr rejected: %s" e
  | Ok (store', response) ->
    Alcotest.(check bool) "response as if applied" true
      (Value.equal response (Value.int 0));
    Alcotest.(check bool) "state unchanged" true
      (Store.peek store' "c" = Some (Value.int 0)));
  (match Store.spec_of frozen "c" with
  | Some spec ->
    Alcotest.(check string) "type name marks the fault" "stuck(counter)"
      spec.Memory.Spec.type_name
  | None -> Alcotest.fail "spec vanished");
  (* idempotent: freezing twice does not re-wrap *)
  (match Store.spec_of (Store.freeze frozen "c") "c" with
  | Some spec ->
    Alcotest.(check string) "freeze is idempotent" "stuck(counter)"
      spec.Memory.Spec.type_name
  | None -> Alcotest.fail "spec vanished");
  Alcotest.check_raises "unknown location"
    (Invalid_argument "Store.freeze: unknown location \"nope\"") (fun () ->
      ignore (Store.freeze store "nope"))

let test_step_lost_semantics () =
  let c0 = config () in
  let c1 = Engine.step_lost c0 0 in
  Alcotest.(check bool) "store unchanged" true
    (Store.peek c1.Engine.store "c" = Some (Value.int 0));
  Alcotest.(check int) "process advanced" 1 c1.Engine.procs.(0).Runtime.Proc.steps;
  Alcotest.(check int) "clock ticked" 1 c1.Engine.time;
  Alcotest.(check int) "trace event recorded" 1
    (List.length c1.Engine.trace)

let test_fault_decisions_roundtrip () =
  let decisions =
    [ Repro.Lose 0; Repro.Stick "c"; Repro.Step 0; Repro.Step 1 ]
  in
  let cert =
    Repro.of_decisions ~sched:"test" ~message:"faulty run" (config ())
      decisions
  in
  (match Repro.of_json (Repro.to_json cert) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok cert' ->
    Alcotest.(check bool) "fault decisions survive JSON" true (cert = cert'));
  match Repro.replay cert (config ()) with
  | Error e -> Alcotest.failf "fault cert replay: %s" e
  | Ok final ->
    (* Lose 0 dropped p0's increment; Stick "c" froze the register; the
       remaining steps cannot move it: the counter must still read 0. *)
    Alcotest.(check bool) "faults re-injected on replay" true
      (Store.peek final.Engine.store "c" = Some (Value.int 0))

let test_election_fuzz_with_faults () =
  (* Lost writes genuinely break a correct cas election: the campaign
     must find a violation whose certificate contains fault decisions
     and replays bit for bit through subject resolution. *)
  let k = 4 and n = 3 in
  let instance = Protocols.Cas_election.instance ~k ~n in
  let subject = Subject.election ~protocol:"cas" ~k ~n () in
  let plan = { Faults.default with lose_p = 0.25; max_faults = 4 } in
  let outcome =
    Election.fuzz ~runs:128 ~seed:1 ~plan ~kind:Fuzz.Random_walk ~subject
      instance
  in
  match outcome.Fuzz.cert with
  | None -> Alcotest.fail "no violation under heavy lost writes"
  | Some cert -> (
    Alcotest.(check bool) "certificate carries fault decisions" true
      (List.exists Faults.is_fault cert.Repro.decisions);
    match Subject.resolve cert.Repro.subject with
    | Error e -> Alcotest.failf "subject: %s" e
    | Ok resolved -> (
      match Repro.replay cert resolved.Subject.config with
      | Error e -> Alcotest.failf "replay: %s" e
      | Ok final ->
        Alcotest.(check bool) "replayed final still violates" true
          (resolved.Subject.failing (Engine.Config_view.of_config final) <> None)))

(* --- the new schedulers ----------------------------------------------- *)

let test_starve_withholds_victim () =
  let sched = Sched.starve ~victim:0 ~stall:2 (Sched.round_robin ()) in
  let pick () =
    let pid = sched.Sched.choose ~time:0 ~enabled:[ 0; 1 ] in
    sched.Sched.observe ~time:0 ~pid;
    pid
  in
  let first = pick () in
  let second = pick () in
  let third = pick () in
  Alcotest.(check (list int)) "victim withheld for stall steps, then runs"
    [ 1; 1; 0 ]
    [ first; second; third ]

let test_starve_sole_survivor () =
  let sched = Sched.starve ~victim:0 ~stall:100 (Sched.round_robin ()) in
  Alcotest.(check int) "sole enabled victim still runs" 0
    (sched.Sched.choose ~time:0 ~enabled:[ 0 ])

let test_pct_deterministic_and_demoting () =
  let mk () = Sched.pct ~seed:9 ~depth:3 ~max_steps:50 () in
  let drive sched =
    List.init 20 (fun i ->
        let pid = sched.Sched.choose ~time:i ~enabled:[ 0; 1; 2 ] in
        sched.Sched.observe ~time:i ~pid;
        pid)
  in
  let s1 = drive (mk ()) and s2 = drive (mk ()) in
  Alcotest.(check (list int)) "same seed, same schedule" s1 s2;
  (* Without change points the top-priority pid runs solo; with depth 3
     the demotions must let some other pid in eventually. *)
  Alcotest.(check bool) "priority changes actually happen" true
    (List.length (List.sort_uniq compare s1) > 1)

(* --- oracle: every fuzz run's final == persistent replay of its log --- *)

(* A fuzz run executes on the arena machine; the persistent engine is
   the reference.  For every run of a seeded fault-injecting campaign,
   replaying the run's decision log on the persistent backend must reach
   the same final configuration, structurally and by digest.  The runs
   must inject every fault kind the plan enables, so each fault path is
   compared. *)
let oracle_runs = 256

let check_against_reference ~name ~plan ~kind ~max_steps config =
  let crashes = ref 0 and lost = ref 0 and stuck = ref 0 in
  for i = 0 to oracle_runs - 1 do
    let seed = 1 + i in
    let r = Fuzz.run ~max_steps ~plan ~kind ~seed config in
    List.iter
      (function
        | Repro.Crash _ -> incr crashes
        | Repro.Lose _ -> incr lost
        | Repro.Stick _ -> incr stuck
        | Repro.Step _ -> ())
      r.Fuzz.decisions;
    match Repro.apply config r.Fuzz.decisions with
    | Error e -> Alcotest.failf "%s seed %d: log does not replay: %s" name seed e
    | Ok { Repro.final; _ } ->
      if not (Engine.config_equal r.Fuzz.final final) then
        Alcotest.failf "%s seed %d: final differs from persistent replay" name
          seed;
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d: final digest" name seed)
        (Fingerprint.digest final)
        (Fingerprint.digest r.Fuzz.final)
  done;
  let injected count rate = rate = 0.0 || count > 0 in
  Alcotest.(check bool)
    (Printf.sprintf "%s: every enabled fault kind injected (%d crashes, \
                     %d lost writes, %d stuck-ats)" name !crashes !lost !stuck)
    true
    (injected !crashes plan.Faults.crash_p
    && injected !lost plan.Faults.lose_p
    && injected !stuck plan.Faults.stick_p)

let test_runs_match_reference () =
  let election ?(plan = Faults.default) t kind =
    ( Printf.sprintf "%s %s" t.Election.name (Fuzz.kind_name kind),
      plan,
      kind,
      Election.config t,
      (t.Election.step_bound * t.Election.n * 2) + 1000 )
  in
  let cas = Protocols.Cas_election.instance ~k:4 ~n:3 in
  let pct = Fuzz.Pct { depth = 3 } in
  let broken = Subject.of_target (Lint.broken_cas_fixture ~n:5 ~flip:true ()) in
  List.iter
    (fun (name, plan, kind, config, max_steps) ->
      check_against_reference ~name ~plan ~kind ~max_steps config)
    [
      election cas Fuzz.Random_walk;
      election cas pct;
      ("broken-cas n=5 flip pct", Faults.default, pct, broken.Subject.config, 200);
      (* Runs where every process takes several steps, and where a lost
         write or a stuck-at makes a continuation raise [Failure]: both
         backends must turn it into the same Faulty process. *)
      election (Protocols.Permutation_election.instance ~k:4 ~n:6) pct;
      election (Protocols.Multi_election.instance ~ks:[ 3; 3 ] ~n:4) pct;
    ]

(* --- a raising continuation faults its process on every executor --- *)

(* [fail_at ops] performs [ops] increments, then its continuation raises
   [Failure].  After one op the compiled node's edge builder calls the
   continuation; after two, a fuzz run's interpreting machine calls it
   from the closure fallback. *)
let fail_at ops =
  let open Runtime.Program in
  let rec go i =
    let* _ = op "c" (Value.sym "incr") in
    if i = 1 then failwith "boom" else go (i - 1)
  in
  complete (go ops)

let test_raising_continuation () =
  let expected = "continuation raised Failure(\"boom\")" in
  List.iter
    (fun ops ->
      let name = Printf.sprintf "failwith after %d op(s)" ops in
      let config =
        Engine.init (Store.create [ ("c", counter_spec) ]) [ fail_at ops ]
      in
      let status (c : Engine.config) =
        c.Engine.procs.(0).Runtime.Proc.status
      in
      let rec persistent c =
        if Engine.enabled c = [] then c else persistent (Engine.step c 0)
      in
      let p = persistent config in
      Alcotest.(check bool) (name ^ ": persistent status") true
        (status p = Runtime.Proc.Faulty expected);
      let m = Engine.Machine.of_config config in
      while Engine.Machine.enabled m <> [] do
        Engine.Machine.step m 0
      done;
      let compiled = Engine.Machine.config m in
      let fuzzed =
        (Fuzz.run ~kind:Fuzz.Random_walk ~seed:1 config).Fuzz.final
      in
      List.iter
        (fun (executor, c) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s status" name executor)
            true
            (status c = status p);
          Alcotest.(check string)
            (Printf.sprintf "%s: %s digest" name executor)
            (Fingerprint.digest p) (Fingerprint.digest c))
        [ ("compiled machine", compiled); ("fuzz run", fuzzed) ];
      Alcotest.(check bool) (name ^ ": run_sequential") true
        (match
           Runtime.Program.run_sequential config.Engine.store ~pid:0
             (fail_at ops)
         with
        | Error e -> e = expected
        | Ok _ -> false))
    [ 1; 2 ]

let () =
  Alcotest.run "fuzz"
    [
      ( "determinism",
        [
          Alcotest.test_case "run: log + digest per kind" `Quick
            test_run_determinism;
          Alcotest.test_case "campaign: certificate per kind" `Quick
            test_campaign_cert_determinism;
        ] );
      ( "violations",
        [
          Alcotest.test_case "flip fixtures found and replayed" `Quick
            test_finds_flip_fixtures;
          Alcotest.test_case "election under lost writes" `Quick
            test_election_fuzz_with_faults;
        ] );
      ( "faults",
        [
          Alcotest.test_case "stuck-at freeze" `Quick test_freeze_semantics;
          Alcotest.test_case "lost write" `Quick test_step_lost_semantics;
          Alcotest.test_case "fault decisions round-trip and replay" `Quick
            test_fault_decisions_roundtrip;
          Alcotest.test_case "raising continuation faults its process"
            `Quick test_raising_continuation;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "fault runs match persistent replay" `Quick
            test_runs_match_reference;
        ] );
      ( "sched",
        [
          Alcotest.test_case "starve withholds victim" `Quick
            test_starve_withholds_victim;
          Alcotest.test_case "starve sole survivor" `Quick
            test_starve_sole_survivor;
          Alcotest.test_case "pct deterministic" `Quick
            test_pct_deterministic_and_demoting;
        ] );
    ]
