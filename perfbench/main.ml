(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --self-test

   With [--trace 0] it runs the workload untraced and prints the
   end-to-end metrics; with [--trace 1] it prints the per-layer ladder.
   The last line of standard output is the result object; the line
   before it stamps the host and inputs.  See README.md. *)

module Json = Lepower_obs.Json

let result_json (r : Measure.result) =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m : Measure.metric) ->
               ( m.name,
                 Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit) ] ))
             r.metrics) );
    ]

let stamp ~workload ~seed ~seconds ~trace (r : Measure.result) =
  Json.Obj
    ([
       ("workload", Json.String workload);
       ("seed", Json.Int seed);
       ("seconds", Json.Float seconds);
       ("trace", Json.Bool trace);
       ("nproc", Json.Int (Domain.recommended_domain_count ()));
       ("ocaml", Json.String Sys.ocaml_version);
       ("commit", Json.String (Runtime.Repro.git_version ()));
     ]
    @ r.notes)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe --self-test";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | "--self-test" :: rest -> parse (("self-test", "1") :: acc) rest
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get key = List.assoc_opt key opts in
  let int key = Option.bind (get key) int_of_string_opt in
  match (get "self-test", get "workload") with
  | Some _, _ -> exit (Selftest.run ())
  | None, Some name when List.mem name Workloads.names -> (
    match (int "seed", Option.bind (get "seconds") float_of_string_opt, int "trace") with
    | Some seed, Some seconds, Some trace ->
      let r =
        if trace = 0 then Measure.end_to_end ~size:Full ~seed ~seconds name
        else Ladder.run ~size:Full ~seed name
      in
      print_endline
        (Json.to_string (stamp ~workload:name ~seed ~seconds ~trace:(trace <> 0) r));
      print_endline (Json.to_string (result_json r));
      exit (if r.correct then 0 else 1)
    | _ -> usage ())
  | _ -> usage ()
