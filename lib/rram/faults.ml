open Logic

let random_faults rng ~num_cells ~rate =
  let acc = ref [] in
  for cell = 0 to num_cells - 1 do
    if Prng.float rng < rate then
      acc := (cell, if Prng.bool rng then Device.Stuck_1 else Device.Stuck_0) :: !acc
  done;
  !acc

let survives program ~reference defects vectors =
  List.for_all (fun v -> Interp.run ~defects program v = reference v) vectors

type yield_result = {
  trials : int;
  survivors : int;
  yield : float;
  mean_faults : float;
}

let test_vectors rng ~num_inputs ~vectors =
  Array.make num_inputs false
  :: Array.make num_inputs true
  :: List.init vectors (fun _ -> Array.init num_inputs (fun _ -> Prng.bool rng))

let functional_yield ?(seed = 0xFA17) ?(trials = 200) ?(vectors = 24) ~rate program
    ~reference =
  let rng = Prng.create seed in
  let test_vectors = test_vectors rng ~num_inputs:program.Program.num_inputs ~vectors in
  let survivors = ref 0 and total_faults = ref 0 in
  for _ = 1 to trials do
    let faults = random_faults rng ~num_cells:program.Program.num_regs ~rate in
    total_faults := !total_faults + List.length faults;
    if survives program ~reference faults test_vectors then incr survivors
  done;
  {
    trials;
    survivors = !survivors;
    yield = float_of_int !survivors /. float_of_int trials;
    mean_faults = float_of_int !total_faults /. float_of_int trials;
  }

type comparison = {
  rate : float;
  cells : int;
  tmr_cells : int;
  baseline : yield_result;
  resilient : yield_result;
  tmr : yield_result;
}

let yield_comparison ?(seed = 0xFA17) ?(trials = 200) ?(vectors = 24)
    ?(max_attempts = 4) ~rate program ~reference =
  let rng = Prng.create seed in
  let vecs = test_vectors rng ~num_inputs:program.Program.num_inputs ~vectors in
  let tmr = Tmr.protect program in
  let cells = program.Program.num_regs in
  let tmr_cells = tmr.Tmr.program.Program.num_regs in
  (* One physical defect map per trial, over a cell universe wide enough to
     cover the TMR array and the spare cells remapping may reach for — so
     the three arms face the same broken silicon, and a repair that lands on
     another dead cell is caught and re-repaired rather than assumed away. *)
  let universe = max tmr_cells (cells + 32) in
  let base = Array.make 3 0 and faults_seen = Array.make 3 0 in
  for _ = 1 to trials do
    let faults = random_faults rng ~num_cells:universe ~rate in
    let within n = List.filter (fun (cell, _) -> cell < n) faults in
    let baseline_faults = within cells in
    faults_seen.(0) <- faults_seen.(0) + List.length baseline_faults;
    if survives program ~reference baseline_faults vecs then base.(0) <- base.(0) + 1;
    faults_seen.(1) <- faults_seen.(1) + List.length baseline_faults;
    let env = Resilient.env_of_defects faults in
    let report = Resilient.run ~max_attempts ~vectors:vecs env program ~reference in
    if report.Resilient.ok then base.(1) <- base.(1) + 1;
    let tmr_faults = within tmr_cells in
    faults_seen.(2) <- faults_seen.(2) + List.length tmr_faults;
    if survives tmr.Tmr.program ~reference tmr_faults vecs then base.(2) <- base.(2) + 1
  done;
  let result i =
    {
      trials;
      survivors = base.(i);
      yield = float_of_int base.(i) /. float_of_int trials;
      mean_faults = float_of_int faults_seen.(i) /. float_of_int trials;
    }
  in
  {
    rate;
    cells;
    tmr_cells;
    baseline = result 0;
    resilient = result 1;
    tmr = result 2;
  }
