type t = {
  program : Program.t;
  moves : (Isa.reg * Isa.reg) list;
  spares_left : int;
}

let live_regs (p : Program.t) =
  let live = Array.make (max 1 p.Program.num_regs) false in
  let mark = function Isa.Reg r -> live.(r) <- true | Isa.Input _ | Isa.Const _ -> () in
  List.iter
    (fun step ->
      List.iter
        (fun micro ->
          live.(Isa.micro_dst micro) <- true;
          List.iter mark (Isa.micro_reads micro))
        step)
    p.Program.steps;
  Array.iter mark p.Program.outputs;
  live

let subst_operand f = function
  | Isa.Reg r -> Isa.Reg (f r)
  | (Isa.Input _ | Isa.Const _) as o -> o

let subst_micro f = function
  | Isa.Load (r, o) -> Isa.Load (f r, subst_operand f o)
  | Isa.Reset r -> Isa.Reset (f r)
  | Isa.Imp { src; dst } -> Isa.Imp { src = f src; dst = f dst }
  | Isa.Maj_pulse { p; q; dst } ->
      Isa.Maj_pulse { p = subst_operand f p; q = subst_operand f q; dst = f dst }

let apply_moves (p : Program.t) ~num_regs ~moves =
  let subst = Hashtbl.create 7 in
  List.iter (fun (from, to_) -> Hashtbl.replace subst from to_) moves;
  let f r = try Hashtbl.find subst r with Not_found -> r in
  {
    p with
    Program.num_regs;
    steps = List.map (List.map (subst_micro f)) p.Program.steps;
    outputs = Array.map (subst_operand f) p.Program.outputs;
  }

let bad_live_regs (p : Program.t) ~bad =
  let live = live_regs p in
  List.sort_uniq compare bad
  |> List.filter (fun r -> r >= 0 && r < p.Program.num_regs && live.(r))

let remap ?(capacity = max_int) (p : Program.t) ~bad =
  let needed = bad_live_regs p ~bad in
  if needed = [] then Ok { program = p; moves = []; spares_left = max_int }
  else begin
    (* Fresh registers are fresh physical cells: the dead cell keeps its index
       (and its defect), the replacement gets a previously untouched index, so
       a physical defect map stays valid across repeated remaps. *)
    let num_regs' = p.Program.num_regs + List.length needed in
    if num_regs' > capacity then
      Error
        (Printf.sprintf "out of spare cells: need %d registers, array holds %d"
           num_regs' capacity)
    else begin
      let moves = List.mapi (fun i r -> (r, p.Program.num_regs + i)) needed in
      Ok
        {
          program = apply_moves p ~num_regs:num_regs' ~moves;
          moves;
          spares_left = (if capacity = max_int then max_int else capacity - num_regs');
        }
    end
  end

let remap_wear_aware ~wear (p : Program.t) ~bad =
  let needed = bad_live_regs p ~bad in
  if needed = [] then Ok { program = p; moves = []; spares_left = max_int }
  else begin
    let live = live_regs p in
    let is_live r = r < Array.length live && live.(r) in
    let bad_set = List.sort_uniq compare bad in
    (* Candidate replacements: every physical cell of the array that the
       program does not currently touch and that is not itself known bad,
       taken in order of least accumulated wear (ties to the lower index,
       keeping the choice deterministic).  Steering repairs toward the
       low-wear region is the wear-leveling half of the policy: the fresh
       cell brings the widest remaining resistance window, and writes
       spread across the crossbar instead of piling onto the same spares. *)
    let candidates =
      List.init (Array.length wear) Fun.id
      |> List.filter (fun r -> (not (is_live r)) && not (List.mem r bad_set))
      |> List.stable_sort (fun a b -> compare (wear.(a), a) (wear.(b), b))
    in
    let n = List.length needed in
    if List.length candidates < n then
      Error
        (Printf.sprintf "out of spare cells: need %d low-wear replacements, %d free"
           n (List.length candidates))
    else begin
      let moves = List.map2 (fun r c -> (r, c)) needed (List.filteri (fun i _ -> i < n) candidates) in
      let num_regs' =
        List.fold_left (fun acc (_, c) -> max acc (c + 1)) p.Program.num_regs moves
      in
      Ok
        {
          program = apply_moves p ~num_regs:num_regs' ~moves;
          moves;
          spares_left = List.length candidates - n;
        }
    end
  end
