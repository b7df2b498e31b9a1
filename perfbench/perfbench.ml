(* The repository benchmark.  Usage (from the repository root):

     perfbench.exe --workload NAME|all --seed N --seconds S --trace 0|1

   Set-up repeats (see [min_setups]) and reports the median.  The timed passes then
   repeat until S seconds have been measured (at least [min_passes]).  Every
   pass's outputs go through the independent oracle, and the deterministic
   outputs of all passes must agree.  With --trace 0 the last stdout line is
   the end-to-end result; with --trace 1 it carries the per-layer metrics of
   a separate traced run (untraced and traced units alternate, so the
   tracing overhead is measured too).  Spans are written to
   .perfbench/trace-WORKLOAD-SEED.json.  The exit code is 1 on any oracle
   mismatch or determinism failure. *)

open Common

module type WORKLOAD = sig
  type env

  val setup : seed:int -> env
  val teardown : env -> unit
  val pass : env -> int -> pass
end

(* How a workload runs in the traced run; [Serve_mix] replays its requests
   in-process, everyone else traces the pass itself. *)
type 'env traced = {
  prepare : 'env -> pass list;  (** untraced passes the extras need *)
  unit_ : 'env -> int -> pass;  (** one unit of work *)
  extra : 'env -> (string * float) list;
  rss : 'env -> float;
}

type workload =
  | W : string * (module WORKLOAD with type env = 'e) * 'e traced * int -> workload

let plain (type e) (module M : WORKLOAD with type env = e) =
  {
    prepare = (fun _ -> []);
    unit_ = M.pass;
    extra = (fun _ -> []);
    rss = (fun _ -> peak_rss_mb None);
  }

let workloads =
  [
    W ("table2_map", (module Table2_map), plain (module Table2_map), 1);
    W ("scale100k_opt", (module Scale100k_opt), plain (module Scale100k_opt), 1);
    W
      ( "serve_mix",
        (module Serve_mix),
        {
          prepare = Serve_mix.prepare_trace;
          unit_ = Serve_mix.replay;
          extra = Serve_mix.layer_extra;
          rss = Serve_mix.daemon_rss;
        },
        2 );
    W ("yield_mc", (module Yield_mc), plain (module Yield_mc), 2);
  ]

let end_to_end =
  [
    ("setup_s", "s");
    ("run_s", "s");
    ("throughput_rps", "1/s");
    ("peak_rss_mb", "MB");
    ("mig_gates", "count");
    ("rram_devices", "count");
    ("rram_steps", "count");
  ]

let layers =
  [
    "io";
    "core.convert";
    "flow";
    "core.equiv";
    "rram.compile";
    "rram.verify";
    "serve.protocol";
    "serve.cache";
    "serve.server";
    "exp.montecarlo";
  ]

(* Per-layer metrics: (name, unit, source).  [`Span (layer, name)] is self
   time of those spans, [`Layer l] of every span of layer l, [`Count c] a
   count recorded at a span boundary, [`Extra] a value the workload reports
   itself (daemon counters, client latency split). *)
let per_layer =
  [
    ("io.parse_s", "s", `Span ("io", "parse"));
    ("io.write_s", "s", `Span ("io", "write"));
    ("io.bytes", "count", `Count "io.bytes");
    ("convert_s", "s", `Layer "core.convert");
    ("convert.nodes", "count", `Count "convert.nodes");
    ("flow.area_s", "s", `Span ("flow", "area"));
    ("flow.depth_s", "s", `Span ("flow", "depth"));
    ("flow.rram_imp_s", "s", `Span ("flow", "rram_imp"));
    ("flow.rram_maj_s", "s", `Span ("flow", "rram_maj"));
    ("flow.steps_s", "s", `Span ("flow", "steps"));
    ("flow.script_s", "s", `Span ("flow", "script"));
    ("flow.pass_s", "s", `Count "flow.pass_s");
    ("flow.between_passes_s", "s", `Count "flow.between_passes_s");
    ("equiv_s", "s", `Layer "core.equiv");
    ("equiv.vectors", "count", `Count "equiv.vectors");
    ("compile_s", "s", `Layer "rram.compile");
    ("compile.programs", "count", `Count "compile.programs");
    ("verify_s", "s", `Layer "rram.verify");
    ("verify.vectors", "count", `Count "verify.vectors");
    ("verify.pulses", "count", `Count "verify.pulses");
    ("protocol.decode_s", "s", `Span ("serve.protocol", "decode"));
    ("protocol.encode_s", "s", `Span ("serve.protocol", "encode"));
    ("cache.key_s", "s", `Span ("serve.cache", "key"));
    ("cache.lookup_s", "s", `Span ("serve.cache", "lookup"));
    ("cache.store_s", "s", `Span ("serve.cache", "store"));
    ("cache.hits", "count", `Extra);
    ("cache.misses", "count", `Extra);
    ("cache.coalesced", "count", `Extra);
    ("cache.evictions", "count", `Extra);
    ("cache.hit_ratio", "ratio", `Extra);
    ("server.batches", "count", `Extra);
    ("server.max_batch", "count", `Extra);
    ("server.inline_jobs", "count", `Extra);
    ("server.hit_wait_ms", "ms", `Extra);
    ("server.miss_wait_ms", "ms", `Extra);
    ("serve.hit_p50_ms", "ms", `Extra);
    ("serve.hit_p99_ms", "ms", `Extra);
    ("serve.hit_samples", "count", `Extra);
    ("serve.miss_p50_ms", "ms", `Extra);
    ("serve.miss_p99_ms", "ms", `Extra);
    ("serve.miss_samples", "count", `Extra);
    ("montecarlo_s", "s", `Span ("exp.montecarlo", "montecarlo"));
    ("montecarlo.executions", "count", `Count "montecarlo.executions");
    ("faults_s", "s", `Span ("exp.montecarlo", "faults"));
    ("faults.executions", "count", `Count "faults.executions");
  ]
  @ List.map (fun l -> (l ^ ".self_s", "s", `Layer l)) layers
  @ [
      ("trace.attributed_frac", "ratio", `Extra);
      ("trace.overhead_frac", "ratio", `Extra);
    ]

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME|all --seed N --seconds S --trace 0|1\n\
     workloads: table2_map scale100k_opt serve_mix yield_mc";
  exit 2

let arg name =
  let rec scan = function
    | a :: v :: _ when a = name -> Some v
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (List.tl (Array.to_list Sys.argv))

let int_arg name default =
  match arg name with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n when n >= 0 -> n | _ -> usage ())

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)
(* ------------------------------------------------------------------ *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

(* Set-up repeats at least [min_setups] times and until [setup_budget]
   seconds are spent (at most [max_setups] times); the median is reported. *)
let min_setups = 3
let max_setups = 1000
let setup_budget = 0.5

(* Every pass starts from a collected heap, so garbage left by set-up or by
   the previous pass neither slows it nor shifts its peak memory. *)
let collected f =
  Gc.full_major ();
  f ()

let run_one (W (name, (module M), traced, min_passes)) ~seed ~seconds ~trace =
  let setup_times, env =
    let rec go times =
      let env, dt = timed (fun () -> M.setup ~seed) in
      let times = dt :: times in
      let n = List.length times in
      if n >= max_setups || (n >= min_setups && List.fold_left ( +. ) 0.0 times >= setup_budget)
      then (times, env)
      else begin
        M.teardown env;
        go times
      end
    in
    go []
  in
  Fun.protect ~finally:(fun () -> M.teardown env) @@ fun () ->
  let budget = float_of_int seconds in
  let passes = ref [] in
  let t_run = now_ns () in
  let units_plain = ref [] and units_traced = ref [] and prepared = ref [] in
  if not trace then
    while List.length !passes < min_passes || seconds_since t_run < budget do
      passes := collected (fun () -> M.pass env (List.length !passes)) :: !passes
    done
  else begin
    prepared := traced.prepare env;
    (* an untraced warm-up unit, so the first timed unit is not the one
       that grows the heap; then untraced and traced units alternate, the
       order flipping every round *)
    passes := [ collected (fun () -> traced.unit_ env 0) ];
    Trace.reset ();
    let i = ref 0 in
    let run_unit on =
      Trace.on := on;
      let u = collected (fun () -> traced.unit_ env (List.length !passes)) in
      Trace.on := false;
      passes := u :: !passes;
      if on then units_traced := u.wall_s :: !units_traced
      else units_plain := u.wall_s :: !units_plain
    in
    while !i < 1 || seconds_since t_run < budget do
      run_unit (!i mod 2 = 1);
      run_unit (!i mod 2 = 0);
      incr i
    done
  end;
  let passes = List.rev !passes in
  (* determinism across passes of this run *)
  let deterministic =
    match passes with
    | [] -> true
    | p :: rest ->
        List.for_all
          (fun q ->
            q.digest = p.digest && q.ops = p.ops && q.gates = p.gates && q.devices = p.devices
            && q.steps = p.steps)
          rest
  in
  if not deterministic then
    prerr_endline ("perfbench: MISMATCH " ^ name ^ ": passes disagree on deterministic outputs");
  let checked = !prepared @ passes in
  let attempted = List.fold_left (fun acc (p : pass) -> acc + p.attempted) 0 checked in
  let failed = List.fold_left (fun acc (p : pass) -> acc + p.failed) 0 checked in
  let metrics =
    if not trace then begin
      let p0 = List.hd passes in
      let walls = List.map (fun p -> p.wall_s) passes in
      Printf.printf "%s: %d passes of %d operations, output digest %s\n" name
        (List.length passes) p0.ops (Digest.to_hex (Digest.string p0.digest));
      [
        ("setup_s", median setup_times);
        ("run_s", median walls);
        ("throughput_rps", float_of_int p0.ops /. median walls);
        ("peak_rss_mb", traced.rss env);
        ("mig_gates", float_of_int p0.gates);
        ("rram_devices", float_of_int p0.devices);
        ("rram_steps", float_of_int p0.steps);
      ]
      |> List.map (fun (k, v) -> (k, v, List.assoc k end_to_end))
    end
    else begin
      let units = float_of_int (List.length !units_traced) in
      let traced_wall = List.fold_left ( +. ) 0.0 !units_traced in
      let by_span = Trace.self_by (fun s -> s.Trace.layer ^ "\000" ^ s.Trace.name) in
      let by_layer = Trace.self_by (fun s -> s.Trace.layer) in
      let attributed = List.fold_left (fun acc l -> acc +. Trace.get by_layer l) 0.0 layers in
      let extra =
        ("trace.attributed_frac", attributed /. traced_wall)
        :: ("trace.overhead_frac", (median !units_traced /. median !units_plain) -. 1.0)
        :: traced.extra env
      in
      (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Trace.write (Printf.sprintf ".perfbench/trace-%s-%d.json" name seed);
      Printf.printf "%s: traced %d unit(s), %.3f s traced vs %.3f s untraced (median)\n" name
        (List.length !units_traced) (median !units_traced) (median !units_plain);
      Printf.printf "  %-16s %12s %8s\n" "layer" "self s/unit" "share";
      List.iter
        (fun l ->
          let s = Trace.get by_layer l in
          Printf.printf "  %-16s %12.4f %7.1f%%\n" l (s /. units) (100.0 *. s /. traced_wall))
        layers;
      let metrics =
        List.map
          (fun (k, unit, src) ->
            let v =
              match src with
              | `Span (l, n) -> Trace.get by_span (l ^ "\000" ^ n) /. units
              | `Layer l -> Trace.get by_layer l /. units
              | `Count c -> Trace.get Trace.counts c /. units
              | `Extra -> Option.value (List.assoc_opt k extra) ~default:0.0
            in
            (k, v, unit))
          per_layer
      in
      Trace.reset ();
      metrics
    end
  in
  List.iter (fun (k, v, u) -> Printf.printf "  %-24s %14.6g %s\n" k v u) metrics;
  Printf.printf "  %-24s %14d/%d (error rate %g)\n" "failed/attempted" failed attempted
    (if attempted = 0 then 0.0 else float_of_int failed /. float_of_int attempted);
  { correct = deterministic && failed = 0 && attempted > 0; attempted; failed; metrics }

let json_of { correct; attempted; failed; metrics } =
  let m =
    List.map
      (fun (k, v, u) ->
        (k, Obs.Json.Assoc [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String u) ]))
      metrics
  in
  Obs.Json.to_string
    (Obs.Json.Assoc
       [
         ("correct", Obs.Json.Bool correct);
         ("attempted", Obs.Json.Int attempted);
         ("failed", Obs.Json.Int failed);
         ("metrics", Obs.Json.Assoc m);
       ])

(* BENCHMARK.json, when present, must list exactly the workloads run and the
   metrics printed here. *)
let check_registry () =
  if Sys.file_exists "BENCHMARK.json" then begin
    let doc = Obs.Json.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
    let listed key =
      List.map
        (fun m ->
          match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
          | Obs.Json.String n, Obs.Json.String u -> (n, u)
          | _ -> ("", ""))
        (Obs.Json.to_list (Obs.Json.member key doc))
    in
    let ours = List.map (fun (n, u, _) -> (n, u)) per_layer in
    let workload_names =
      List.map
        (fun w -> Obs.Json.member "name" w)
        (Obs.Json.to_list (Obs.Json.member "workloads" doc))
    in
    if
      listed "end_to_end" <> end_to_end
      || listed "per_layer" <> ours
      || workload_names <> List.map (fun (W (n, _, _, _)) -> Obs.Json.String n) workloads
    then begin
      prerr_endline "perfbench: BENCHMARK.json does not list the workloads and metrics of this benchmark";
      exit 2
    end
  end

let () =
  check_registry ();
  let workload = match arg "--workload" with Some w -> w | None -> usage () in
  let seed = int_arg "--seed" 1 in
  let seconds = max 1 (int_arg "--seconds" 10) in
  let trace = int_arg "--trace" 0 = 1 in
  let selected =
    if workload = "all" then workloads
    else
      match List.filter (fun (W (n, _, _, _)) -> n = workload) workloads with
      | [] -> usage ()
      | w -> w
  in
  let results =
    List.map
      (fun (W (n, _, _, _) as w) ->
        let r = run_one w ~seed ~seconds ~trace in
        if List.length selected > 1 then print_endline (n ^ " " ^ json_of r);
        (n, r))
      selected
  in
  let total =
    match results with
    | [ (_, r) ] -> r
    | many ->
        {
          correct = List.for_all (fun (_, r) -> r.correct) many;
          attempted = List.fold_left (fun acc (_, r) -> acc + r.attempted) 0 many;
          failed = List.fold_left (fun acc (_, r) -> acc + r.failed) 0 many;
          metrics =
            List.concat_map
              (fun (n, r) -> List.map (fun (k, v, u) -> (n ^ "." ^ k, v, u)) r.metrics)
              many;
        }
  in
  print_endline (json_of total);
  if not total.correct then exit 1
