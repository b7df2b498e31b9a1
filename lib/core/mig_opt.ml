(* The paper's Algs. 1–4 (and the Boolean extension) as a typed name for
   their canonical flow scripts: [run] resolves the algorithm's name
   through Mig_flows and runs it under that name.  The convergence loop,
   per-cycle cleanup, trajectory sampling and span structure all live in
   the generic Flow engine. *)

let default_effort = Flow.default_effort

type algorithm =
  | Area
  | Depth
  | Rram_costs of Rram_cost.realization
  | Steps
  | Boolean  (** extension: area + cut-based Boolean rewriting *)

let algorithm_name = function
  | Area -> "area"
  | Depth -> "depth"
  | Rram_costs Rram_cost.Imp -> "rram-costs-imp"
  | Rram_costs Rram_cost.Maj -> "rram-costs-maj"
  | Steps -> "steps"
  | Boolean -> "bool-rewrite"

let run ?effort alg mig =
  fst (Mig_flows.run_request ~algorithm:(algorithm_name alg) ?effort mig)
