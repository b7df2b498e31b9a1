let crossbar ?physics ?(defects = []) num_regs =
  let devices =
    match physics with
    | Some phys ->
        if Array.length phys < num_regs then
          invalid_arg "Interp.crossbar: physics array too small";
        Array.init num_regs (fun i -> Device.create_phys phys.(i))
    | None -> Array.init num_regs (fun _ -> Device.create ())
  in
  List.iter
    (fun (r, d) -> if r >= 0 && r < num_regs then Device.set_defect devices.(r) d)
    defects;
  devices

(* Pulse accounting: one counter per voltage configuration, a write
   histogram per device, step-parallelism stats and wear gauges — all gated
   on the global observability switch, so the only cost on the (hot)
   default path is one boolean load per run. *)
let c_runs = Obs.counter "rram.interp/runs"
and c_steps = Obs.counter "rram.interp/steps"
and c_loads = Obs.counter "rram.interp/pulses.load"
and c_resets = Obs.counter "rram.interp/pulses.reset"
and c_imps = Obs.counter "rram.interp/pulses.imp"
and c_majs = Obs.counter "rram.interp/pulses.maj"

let h_step_width = Obs.histogram "rram.interp/micro_ops_per_step"
let h_writes = Obs.histogram "rram.interp/writes_per_device"
let g_wear_max = Obs.gauge "rram.interp/wear.max"
let g_wear_total = Obs.gauge "rram.interp/wear.total"

let run_on ~devices ?trace (program : Program.t) inputs =
  if Array.length inputs <> program.Program.num_inputs then
    invalid_arg "Interp.run: input count";
  if Array.length devices < program.Program.num_regs then
    invalid_arg "Interp.run_on: crossbar too small";
  let obs = Obs.enabled () in
  let t0 = if obs then Obs.now_ns () else 0L in
  let writes = if obs then Array.make (Array.length devices) 0 else [||] in
  let operand_value = function
    | Isa.Input i -> inputs.(i)
    | Isa.Reg r -> Device.read devices.(r)
    | Isa.Const b -> b
  in
  List.iteri
    (fun idx step ->
      if obs then begin
        Obs.incr c_steps;
        Obs.observe h_step_width (List.length step)
      end;
      (* Parallel semantics: latch all source values before any write. *)
      let actions =
        List.map
          (fun micro ->
            if obs then begin
              (match micro with
              | Isa.Load _ -> Obs.incr c_loads
              | Isa.Reset _ -> Obs.incr c_resets
              | Isa.Imp _ -> Obs.incr c_imps
              | Isa.Maj_pulse _ -> Obs.incr c_majs);
              let dst = Isa.micro_dst micro in
              writes.(dst) <- writes.(dst) + 1
            end;
            match micro with
            | Isa.Load (r, o) ->
                let v = operand_value o in
                fun () -> Device.write devices.(r) v
            | Isa.Reset r -> fun () -> Device.clear devices.(r)
            | Isa.Imp { src; dst } ->
                let p = Device.read devices.(src) in
                fun () -> Device.imp_apply ~p devices.(dst)
            | Isa.Maj_pulse { p; q; dst } ->
                let pv = operand_value p and qv = operand_value q in
                fun () -> Device.maj_pulse devices.(dst) ~p:pv ~q:qv)
          step
      in
      List.iter (fun act -> act ()) actions;
      (* The callback fires after every write of the step has landed; the
         states are the true post-step states (Device.observe, immune to
         sense noise) for all devices of the crossbar. *)
      match trace with
      | Some f -> f (idx + 1) step (Array.map Device.observe devices)
      | None -> ())
    program.Program.steps;
  if obs then begin
    Obs.incr c_runs;
    Array.iteri
      (fun r w -> if r < program.Program.num_regs then Obs.observe h_writes w)
      writes;
    let wear_max = ref 0 and wear_total = ref 0 in
    Array.iter
      (fun d ->
        let w = Device.wear d in
        wear_total := !wear_total + w;
        if w > !wear_max then wear_max := w)
      devices;
    Obs.set_gauge g_wear_max (float_of_int !wear_max);
    Obs.set_gauge g_wear_total (float_of_int !wear_total);
    Obs.emit_span ~cat:"rram" "rram.interp/run" ~t0
      ~args:
        [
          ("steps", Obs.Json.Int (Program.num_steps program));
          ("regs", Obs.Json.Int program.Program.num_regs);
        ]
  end;
  Array.map
    (fun o ->
      match o with
      | Isa.Input i -> inputs.(i)
      | Isa.Reg r -> Device.read devices.(r)
      | Isa.Const b -> b)
    program.Program.outputs

let run ?defects ?trace (program : Program.t) inputs =
  let devices = crossbar ?defects program.Program.num_regs in
  run_on ~devices ?trace program inputs
