let check mig =
  let errors = ref [] in
  let error fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let n = Mig.num_nodes mig in
  (* Outputs must not point at dead gates. *)
  Array.iteri
    (fun i s ->
      let g = Mig.node_of s in
      if Mig.kind mig g = Mig.Gate && Mig.is_dead mig g then
        error "output %d driven by dead node %d" i g)
    (Mig.pos mig);
  let seen_triples = Hashtbl.create 997 in
  for g = 0 to n - 1 do
    if Mig.kind mig g = Mig.Gate && not (Mig.is_dead mig g) then begin
      let f = Mig.fanins mig g in
      if Array.length f <> 3 then error "gate %d has %d fanins" g (Array.length f)
      else begin
        (* sortedness and Ω.M normal form *)
        if not (f.(0) < f.(1) && f.(1) < f.(2)) then
          error "gate %d fanins not strictly sorted" g;
        if f.(0) lxor f.(1) = 1 || f.(1) lxor f.(2) = 1 then
          error "gate %d has complementary fanin pair" g;
        (* acyclicity: fanins must be gates created live below g — checked
           via topological reachability *)
        Array.iter
          (fun s ->
            let h = Mig.node_of s in
            if Mig.kind mig h = Mig.Gate && Mig.is_dead mig h then
              error "gate %d has dead fanin %d" g h)
          f;
        (* strash: no two live gates with the same triple *)
        let key = (f.(0), f.(1), f.(2)) in
        (match Hashtbl.find_opt seen_triples key with
        | Some other -> error "gates %d and %d share fanin triple" other g
        | None -> Hashtbl.replace seen_triples key g);
        (* strash lookup must return this gate *)
        (match Mig.lookup mig f.(0) f.(1) f.(2) with
        | Some s when Mig.node_of s = g -> ()
        | Some s -> error "strash maps gate %d's triple to %d" g (Mig.node_of s)
        | None -> error "gate %d missing from the strash table" g);
        (* fanout lists of the fanins must mention g exactly once *)
        Array.iter
          (fun s ->
            let h = Mig.node_of s in
            let count = List.length (List.filter (fun x -> x = g) (Mig.fanout mig h)) in
            if count <> 1 then
              error "fanout list of %d mentions %d %d times" h g count)
          f
      end
    end
  done;
  (* fanout lists must only contain genuine users *)
  for h = 0 to n - 1 do
    if not (Mig.is_dead mig h) then
      List.iter
        (fun g ->
          if Mig.is_dead mig g then error "fanout of %d contains dead %d" h g
          else if
            not (Array.exists (fun s -> Mig.node_of s = h) (Mig.fanins mig g))
          then error "fanout of %d contains non-user %d" h g)
        (Mig.fanout mig h)
  done;
  (* acyclicity: topo_order covers all live reachable gates without revisit,
     which the DFS guarantees unless there is a cycle (stack overflow or a
     gate whose fanin is not earlier in the order). *)
  let position = Hashtbl.create 997 in
  List.iteri (fun i g -> Hashtbl.replace position g i) (Mig.topo_order mig);
  List.iter
    (fun g ->
      Array.iter
        (fun s ->
          let h = Mig.node_of s in
          if Mig.kind mig h = Mig.Gate then
            match (Hashtbl.find_opt position h, Hashtbl.find_opt position g) with
            | Some ph, Some pg when ph >= pg -> error "edge %d -> %d violates topo order" h g
            | None, _ -> error "fanin %d of %d missing from topo order" h g
            | _ -> ())
        (Mig.fanins mig g))
    (Mig.topo_order mig);
  match !errors with
  | [] -> Ok ()
  | errs -> Error (String.concat "; " (List.rev errs))
