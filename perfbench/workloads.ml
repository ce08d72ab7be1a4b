(* The benchmark workloads: each one's instance, its set-up, the timed
   job, and the known answer the job must reproduce.  README.md records
   why each workload was chosen and which layer it stresses. *)

module Engine = Runtime.Engine
module Explore = Runtime.Explore
module Election = Protocols.Election
module Lint = Lepower_check.Lint

type size = Full | Tiny

let names = [ "naive-k9"; "reduced-k12"; "parallel-k12"; "fuzz-perm" ]
let max_steps = 10_000

(* Every fuzz campaign is PCT at the library's default depth. *)
let pct = Runtime.Fuzz.Pct { depth = 3 }

(* Pinned answers.  [naive] and [reduced] are the complete statistics of
   the two single-domain walks; the parallel walk may legitimately vary
   its counters, so it is pinned on its decision sets, which must equal
   the single-domain reduced walk's (count and MD5 of their rendering).
   [fuzz_steps.(slot)] is the perm campaign's decision count for the
   base seed of that slot (see [fuzz_base]). *)
type pins = {
  naive : Explore.stats;
  reduced : Explore.stats;
  decision_sets : int * string;
  fuzz_steps : int array;
}

let stats ~terminals ~max_depth ~choice_points ~configs_visited
    ~configs_deduped ~por_pruned ~por_checks =
  {
    Explore.terminals;
    truncated = 0;
    max_depth;
    choice_points;
    configs_visited;
    configs_deduped;
    por_pruned;
    por_checks;
    por_fast_hits = 0;
    domains_used = 1;
  }

let pins = function
  | Full ->
    {
      naive =
        stats ~terminals:10_321_920 ~max_depth:8 ~choice_points:6_696_049
          ~configs_visited:17_017_969 ~configs_deduped:0 ~por_pruned:0
          ~por_checks:0;
      reduced =
        stats ~terminals:11_265 ~max_depth:11 ~choice_points:640_322
          ~configs_visited:651_587 ~configs_deduped:996_039
          ~por_pruned:2_705_163 ~por_checks:8_880_272;
      decision_sets = (122, "9924241ed9c1dfbbae09fd94c2d2ce2b");
      fuzz_steps =
        [|
          2_106_150; 2_106_540; 2_106_270; 2_106_450;
          2_106_190; 2_106_130; 2_106_840; 2_106_510;
          2_106_990; 2_106_270; 2_106_540; 2_106_580;
          2_106_490; 2_106_060; 2_106_610; 2_106_710;
        |];
    }
  | Tiny ->
    {
      naive =
        stats ~terminals:3_840 ~max_depth:5 ~choice_points:2_491
          ~configs_visited:6_331 ~configs_deduped:0 ~por_pruned:0
          ~por_checks:0;
      reduced =
        stats ~terminals:81 ~max_depth:5 ~choice_points:356 ~configs_visited:437
          ~configs_deduped:180 ~por_pruned:624 ~por_checks:1_460;
      decision_sets = (26, "e6064cc153e68e3d9abbba47d7601b6c");
      fuzz_steps =
        [|
          21_574; 21_574; 21_564; 21_574;
          21_634; 21_574; 21_524; 21_554;
          21_584; 21_584; 21_584; 21_584;
          21_564; 21_564; 21_544; 21_564;
        |];
    }

let walk_instance name size =
  match (name, size) with
  | "naive-k9", Full -> Protocols.Cas_election.instance ~k:9 ~n:8
  | _, Full -> Protocols.Cas_election.instance ~k:12 ~n:11
  | _, Tiny -> Protocols.Cas_election.instance ~k:6 ~n:5

let perm_instance () = Protocols.Permutation_election.instance ~k:4 ~n:6
let broken_cas () = Lint.broken_cas_fixture ~n:5 ~flip:true ()
let fuzz_runs = function Full -> 25_000 | Tiny -> 256
let broken_runs = 256

(* The seed picks one of 16 disjoint blocks of [runs] consecutive run
   seeds, so every benchmark seed maps to a campaign whose answer is
   pinned. *)
let fuzz_slots = 16
let fuzz_slot seed = ((seed mod fuzz_slots) + fuzz_slots) mod fuzz_slots
let fuzz_base size seed = 1 + (fuzz_slot seed * fuzz_runs size)

let walk_options ~reduced ~domains =
  {
    Explore.Options.default with
    crash_faults = true;
    backend = Engine.Arena;
    dedup = reduced;
    por = reduced;
    domains;
  }

let options_of = function
  | "naive-k9" -> walk_options ~reduced:false ~domains:1
  | "reduced-k12" -> walk_options ~reduced:true ~domains:1
  | _ -> walk_options ~reduced:true ~domains:2

let stats_string (s : Explore.stats) =
  Printf.sprintf
    "terminals=%d truncated=%d max_depth=%d choice_points=%d visited=%d \
     deduped=%d por_pruned=%d por_checks=%d por_fast_hits=%d domains=%d"
    s.terminals s.truncated s.max_depth s.choice_points s.configs_visited
    s.configs_deduped s.por_pruned s.por_checks s.por_fast_hits s.domains_used

let check_stats ~pinned = function
  | Error e -> Error ("verdict: " ^ e)
  | Ok s when s = pinned -> Ok ()
  | Ok s ->
    Error
      (Printf.sprintf "stats {%s}, pinned {%s}" (stats_string s)
         (stats_string pinned))

let check_verdict = function
  | Error e -> Error ("verdict: " ^ e)
  | Ok (_ : Explore.stats) -> Ok ()

let decision_digest sets =
  let render set = String.concat "," (List.map Memory.Value.to_string set) in
  let text = String.concat ";" (List.map render sets) in
  (List.length sets, Digest.to_hex (Digest.string text))

let check_decision_sets ~pinned sets =
  let got = decision_digest sets in
  if got = pinned then Ok ()
  else
    Error
      (Printf.sprintf "decision sets %d/%s, pinned %d/%s" (fst got) (snd got)
         (fst pinned) (snd pinned))

(* A found violation must come back shrunk, and its certificate must
   replay from a freshly resolved fixture and still fail there. *)
let check_found target (o : Runtime.Fuzz.outcome) =
  match (o.cert, o.shrink) with
  | None, _ -> Error "broken-cas: no violation found"
  | _, None -> Error "broken-cas: violation not shrunk"
  | Some cert, Some s -> (
    let resolved = Lepower_check.Repro_subject.of_target target in
    match Runtime.Repro.replay cert resolved.config with
    | Error e -> Error ("broken-cas: certificate does not replay: " ^ e)
    | Ok final ->
      if s.shrunk > s.original then Error "broken-cas: shrink grew the log"
      else if
        resolved.failing (Engine.Config_view.of_config final) = None
      then Error "broken-cas: replayed certificate does not fail"
      else Ok ())

let check_fuzz ~runs ~steps (o : Runtime.Fuzz.outcome) =
  match o.message with
  | Some m -> Error ("perm: violation " ^ m)
  | None when o.runs <> runs ->
    Error (Printf.sprintf "perm: %d runs, expected %d" o.runs runs)
  | None when o.steps <> steps ->
    Error (Printf.sprintf "perm: %d steps, pinned %d" o.steps steps)
  | None -> Ok ()

let both a b = match a with Ok () -> b | Error _ -> a

(* A workload: [setup] builds what a job starts from (timed as
   [setup_s]); [job] runs the timed work and returns the check of its
   answer, which the caller runs outside the timed region; [gate] is a
   once-per-run untimed check. *)
type t = {
  name : string;
  setup : unit -> unit;
  job : unit -> unit -> (unit, string) result;
  gate : (unit -> (unit, string) result) option;
}

let setup_instance (inst : Election.instance) =
  ignore (Sys.opaque_identity (Engine.Machine.of_config (Election.config inst)))

let make ?pins:pinned ~size ~seed name =
  let pins = Option.value pinned ~default:(pins size) in
  match name with
  | "naive-k9" | "reduced-k12" | "parallel-k12" ->
    let inst = walk_instance name size in
    let options = options_of name in
    let check =
      match name with
      | "naive-k9" -> check_stats ~pinned:pins.naive
      | "reduced-k12" -> check_stats ~pinned:pins.reduced
      | _ -> check_verdict
    in
    let gate () =
      check_decision_sets ~pinned:pins.decision_sets
        (Explore.decision_sets
           ~options:{ options with max_steps }
           (Election.config inst))
    in
    {
      name;
      setup = (fun () -> setup_instance (walk_instance name size));
      job =
        (fun () ->
          let r = Election.explore_stats ~options inst ~max_steps in
          fun () -> check r);
      gate = (if name = "parallel-k12" then Some gate else None);
    }
  | "fuzz-perm" ->
    let inst = perm_instance () and target = broken_cas () in
    let runs = fuzz_runs size and base = fuzz_base size seed in
    let steps = pins.fuzz_steps.(fuzz_slot seed) in
    {
      name;
      setup =
        (fun () ->
          setup_instance (perm_instance ());
          ignore (Sys.opaque_identity (broken_cas ())));
      job =
        (fun () ->
          (* No backend argument: this is what [lepower fuzz] users get. *)
          let perm = Election.fuzz ~runs ~seed:base ~kind:pct inst in
          let broken =
            Lint.fuzz_target ~runs:broken_runs ~seed:base ~kind:pct target
          in
          fun () ->
            both (check_fuzz ~runs ~steps perm) (check_found target broken));
      gate = None;
    }
  | _ -> invalid_arg ("unknown workload " ^ name)
