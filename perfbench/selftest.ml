(* The benchmark's self-test: the same code at tiny sizes (cas k=6 n=5,
   256-run fuzz campaigns), in a few seconds.  It checks that
   - every workload's untraced run is correct and emits exactly the
     end-to-end metrics BENCHMARK.json declares;
   - the traced run is correct and emits exactly the declared per-layer
     metrics;
   - the parallel workload's pinned decision sets are the single-domain
     reduced walk's;
   - a deliberately wrong pinned answer fails each workload's run.
   Run it from the repository root: [bash perfbench/run.sh --self-test]. *)

module Json = Lepower_obs.Json

let declared section =
  let text = In_channel.with_open_text "BENCHMARK.json" In_channel.input_all in
  let name m =
    match Json.member "name" m with
    | Some (Json.String s) -> s
    | _ -> failwith "BENCHMARK.json: metric without a name"
  in
  match Result.map (Json.member section) (Json.of_string text) with
  | Ok (Some (Json.List ms)) -> List.sort compare (List.map name ms)
  | Ok _ -> failwith ("BENCHMARK.json: no " ^ section ^ " list")
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

let emitted (r : Measure.result) =
  List.sort compare (List.map (fun (m : Measure.metric) -> m.name) r.metrics)

let run () =
  let failures = ref 0 in
  let check what ok =
    if not ok then incr failures;
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what
  in
  let end_to_end = declared "end_to_end" and per_layer = declared "per_layer" in
  let seed = 3 and size = Workloads.Tiny in
  List.iter
    (fun name ->
      let r = Measure.end_to_end ~size ~seed ~seconds:0. name in
      check (name ^ ": untraced run correct") r.correct;
      check (name ^ ": emits the declared end-to-end metrics")
        (emitted r = end_to_end))
    Workloads.names;
  let r = Ladder.run ~size ~seed "naive-k9" in
  check "traced run correct" r.correct;
  check "traced run emits the declared per-layer metrics"
    (emitted r = per_layer);
  let pins = Workloads.pins size in
  let reduced = Workloads.walk_instance "reduced-k12" size in
  check "pinned decision sets are the reduced walk's"
    (Workloads.decision_digest
       (Runtime.Explore.decision_sets
          ~options:
            {
              (Workloads.options_of "reduced-k12") with
              max_steps = Workloads.max_steps;
            }
          (Protocols.Election.config reduced))
    = pins.decision_sets);
  let wrong =
    [
      ( "naive-k9",
        { pins with naive = { pins.naive with terminals = pins.naive.terminals + 1 } } );
      ( "reduced-k12",
        {
          pins with
          reduced =
            { pins.reduced with configs_deduped = pins.reduced.configs_deduped + 1 };
        } );
      ( "parallel-k12",
        { pins with decision_sets = (fst pins.decision_sets + 1, snd pins.decision_sets) } );
      ("fuzz-perm", { pins with fuzz_steps = Array.map succ pins.fuzz_steps });
    ]
  in
  List.iter
    (fun (name, pins) ->
      let r = Measure.end_to_end ~pins ~size ~seed ~seconds:0. name in
      check (name ^ ": a wrong pinned answer fails the run")
        ((not r.correct) && r.failed > 0))
    wrong;
  if !failures = 0 then 0 else 1
