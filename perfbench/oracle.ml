(* Output checks that do not trust the synthesizer's own checkers
   (Mig_equiv, Rram.Verify).  Networks are compared by bit-parallel
   simulation of the source against the candidate: exhaustively up to
   [exact_inputs] inputs, on seeded random words above.  Compiled programs
   run on the device simulator against Logic.Network.eval of the source. *)

open Logic

let exact_inputs = 14

(* One Bitvec per input: every minterm when exhaustive, random words
   otherwise. *)
let patterns ~seed ~words n =
  if n <= exact_inputs then begin
    let width = 1 lsl n in
    Array.init n (fun i ->
        let v = Bitvec.create width in
        for m = 0 to width - 1 do
          if (m lsr i) land 1 = 1 then Bitvec.set v m true
        done;
        v)
  end
  else begin
    let rng = Prng.create seed in
    Array.init n (fun _ ->
        let v = Bitvec.create (64 * words) in
        Bitvec.randomize rng v;
        v)
  end

let networks_agree ?(words = 16) ~seed reference candidate =
  let n = Network.num_inputs reference in
  n = Network.num_inputs candidate
  && Network.num_outputs reference = Network.num_outputs candidate
  &&
  let pats = patterns ~seed ~words n in
  let a = Network.simulate reference pats and b = Network.simulate candidate pats in
  Array.for_all2 Bitvec.equal a b

(* Parse emitted BLIF text back and compare it with the source network. *)
let blif_agrees ?words ~seed reference blif =
  match Io.Blif.parse_string blif with
  | candidate -> networks_agree ?words ~seed reference candidate
  | exception _ -> false

let random_vector rng n = Array.init n (fun _ -> Prng.bool rng)

(* [vectors] seeded inputs (the all-zero and all-one corners first), each
   run on the device simulator and compared with the source network. *)
let program_agrees ~seed ~vectors program reference =
  let n = Network.num_inputs reference in
  n = program.Rram.Program.num_inputs
  &&
  let rng = Prng.create seed in
  let rec go i =
    i >= vectors
    ||
    let v =
      if i = 0 then Array.make n false
      else if i = 1 then Array.make n true
      else random_vector rng n
    in
    Rram.Interp.run program v = Network.eval reference v && go (i + 1)
  in
  go 0
