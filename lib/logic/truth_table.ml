type t = { n : int; bits : Bitvec.t }

let max_vars = 24

let check_arity n =
  if n < 0 || n > max_vars then invalid_arg "Truth_table: arity out of range"

let create n =
  check_arity n;
  { n; bits = Bitvec.create (1 lsl n) }

let num_vars t = t.n

let const n v =
  let t = create n in
  Bitvec.fill t.bits v;
  t

(* Precomputed alternating masks for variables living inside one word. *)
let var_masks =
  [| 0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
     0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L |]

let var n i =
  check_arity n;
  if i < 0 || i >= n then invalid_arg "Truth_table.var: variable out of range";
  let t = create n in
  let words = Bitvec.num_words t.bits in
  if i < 6 then
    for w = 0 to words - 1 do
      Bitvec.set_word t.bits w var_masks.(i)
    done
  else begin
    (* Variable i toggles every 2^(i-6) words. *)
    let period = 1 lsl (i - 6) in
    for w = 0 to words - 1 do
      if w land period <> 0 then Bitvec.set_word t.bits w Int64.minus_one
    done
  end;
  t

let get t m = Bitvec.get t.bits m
let set t m v = Bitvec.set t.bits m v

let lift2 f a b =
  if a.n <> b.n then invalid_arg "Truth_table: arity mismatch";
  { n = a.n; bits = f a.bits b.bits }

let band = lift2 Bitvec.band
let bor = lift2 Bitvec.bor
let bxor = lift2 Bitvec.bxor
let bnot a = { a with bits = Bitvec.bnot a.bits }

let maj3 a b c =
  if a.n <> b.n || b.n <> c.n then invalid_arg "Truth_table: arity mismatch";
  { n = a.n; bits = Bitvec.maj3 a.bits b.bits c.bits }

let mux s a b =
  if s.n <> a.n || a.n <> b.n then invalid_arg "Truth_table: arity mismatch";
  { n = s.n; bits = Bitvec.mux s.bits a.bits b.bits }

let equal a b = a.n = b.n && Bitvec.equal a.bits b.bits

let cofactor t i v =
  if i < 0 || i >= t.n then invalid_arg "Truth_table.cofactor";
  let r = create t.n in
  let size = 1 lsl t.n in
  let bit = 1 lsl i in
  for m = 0 to size - 1 do
    let src = if v then m lor bit else m land lnot bit in
    Bitvec.set r.bits m (Bitvec.get t.bits src)
  done;
  r

let depends_on t i = not (equal (cofactor t i false) (cofactor t i true))

let of_function n f =
  check_arity n;
  let t = create n in
  let a = Array.make n false in
  for m = 0 to (1 lsl n) - 1 do
    for i = 0 to n - 1 do
      a.(i) <- m land (1 lsl i) <> 0
    done;
    if f a then Bitvec.set t.bits m true
  done;
  t

let of_bits s =
  let len = String.length s in
  let n =
    let rec log2 acc v = if v <= 1 then acc else log2 (acc + 1) (v lsr 1) in
    log2 0 len
  in
  if len <> 1 lsl n then invalid_arg "Truth_table.of_bits: length not a power of two";
  let t = create n in
  String.iteri
    (fun m c ->
      match c with
      | '1' -> Bitvec.set t.bits m true
      | '0' -> ()
      | _ -> invalid_arg "Truth_table.of_bits: expected '0' or '1'")
    s;
  t

let to_bits t = String.init (1 lsl t.n) (fun m -> if get t m then '1' else '0')

let bitvec t = t.bits

let pp ppf t = Format.fprintf ppf "%s" (to_bits t)
