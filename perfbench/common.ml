(* What every workload shares: the per-pass record, timing, quantiles,
   peak memory, loud failures and the traced flow wrapper. *)

type pass = {
  wall_s : float;  (** timed work only; the oracle runs after it *)
  ops : int;  (** operations completed: requests, circuits or campaign executions *)
  gates : int;  (** sum of optimized MIG sizes *)
  devices : int;  (** sum of compiled programs' devices *)
  steps : int;  (** sum of compiled programs' steps *)
  attempted : int;  (** operations the oracle checked *)
  failed : int;  (** of those, mismatches or unexpected errors *)
  digest : string;  (** deterministic outputs, compared across passes *)
}

let now_ns = Obs.now_ns
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)

(* Nearest-rank quantile of an ascending array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let sorted_array l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = quantile (sorted_array l) 0.5

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  scan ()

(* Oracle mismatches are loud: one stderr line each, and the run fails.
   Returns the number of failures (0 or 1). *)
let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then prerr_endline ("perfbench: MISMATCH " ^ msg);
      if ok then 0 else 1)
    fmt

(* The flow layer.  In the traced run only, the program's own Obs spans are
   switched on around the call and its span tree is read back: self time of
   the mig.opt/pass/* spans is pass work, self time of the flow root and
   cycle spans is the per-cycle cleanup and measure between passes. *)
let flow label f =
  if not !Trace.on then f ()
  else begin
    Obs.reset ();
    Obs.set_enabled true;
    let v =
      Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
      Trace.span "flow" label f
    in
    let prefix = "mig.opt/pass/" in
    let is_pass n =
      String.length n >= String.length prefix
      && String.sub n 0 (String.length prefix) = prefix
    in
    let is_cycle n = Filename.check_suffix n "/cycle" in
    let pass = ref 0L and between = ref 0L in
    List.iter
      (fun root ->
        ignore
          (Obs.fold_span_tree
             (fun () node ->
               if is_pass node.Obs.sn_name then pass := Int64.add !pass node.Obs.sn_self_ns
               else if node == root || is_cycle node.Obs.sn_name then
                 between := Int64.add !between node.Obs.sn_self_ns)
             () root))
      (Obs.span_tree ());
    Obs.reset ();
    Trace.count "flow.pass_s" (Int64.to_float !pass /. 1e9);
    Trace.count "flow.between_passes_s" (Int64.to_float !between /. 1e9);
    v
  end

(* Table II's algorithm columns and the realization(s) each is costed in. *)
let algorithm_label = function
  | Core.Mig_opt.Area -> "area"
  | Core.Mig_opt.Depth -> "depth"
  | Core.Mig_opt.Rram_costs Core.Rram_cost.Imp -> "rram_imp"
  | Core.Mig_opt.Rram_costs Core.Rram_cost.Maj -> "rram_maj"
  | Core.Mig_opt.Steps -> "steps"
  | Core.Mig_opt.Boolean -> "boolean"

let optimize ~effort alg mig =
  flow (algorithm_label alg) (fun () -> Core.Mig_opt.run ~effort alg mig)

let parse reader text =
  Trace.count "io.bytes" (float_of_int (String.length text));
  Trace.span "io" "parse" (fun () -> reader text)

let convert net =
  let mig = Trace.span "core.convert" "convert" (fun () -> Core.Mig_of_network.convert net) in
  Trace.count "convert.nodes" (float_of_int (Core.Mig.num_nodes mig));
  mig

let compile ?arch realization mig =
  let r =
    Trace.span "rram.compile" "compile" (fun () -> Rram.Compile_mig.compile ?arch realization mig)
  in
  Trace.count "compile.programs" 1.0;
  r

(* Export and serialize: the BLIF the CLI would write. *)
let write_blif ?model_name mig =
  let text =
    Trace.span "io" "write" (fun () ->
        Io.Blif.write_string ?model_name (Core.Mig_to_network.export mig))
  in
  Trace.count "io.bytes" (float_of_int (String.length text));
  text

let equiv mig net =
  let ok = Trace.span "core.equiv" "equiv" (fun () -> Core.Mig_equiv.equivalent_network mig net) in
  (* the default 64 rounds of 64-bit words, or every minterm *)
  let n = Logic.Network.num_inputs net in
  Trace.count "equiv.vectors"
    (if n <= Core.Mig_equiv.exact_limit then float_of_int (1 lsl n) else 64.0 *. 64.0);
  ok
