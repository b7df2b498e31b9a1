(* Span recorder for the traced run.

   Every call the benchmark makes into a layer's public functions goes
   through [span], which records name, layer, start, end, parent span and
   request id when tracing is on and is a plain call when it is off.  Spans
   stay in memory until [write] dumps them at the end of the run.  A span's
   self time is its duration minus the time its direct children cover;
   spans nest strictly (one domain records), so the children's durations
   simply add up. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  layer : string;
  name : string;
  req : int;  (** request id ([serve_mix]), -1 elsewhere *)
  t0 : int64;
  mutable t1 : int64;
  mutable child_ns : int64;
}

let on = ref false
let recorded : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let request = ref (-1)

(* Counters recorded at the same boundaries as the spans. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 16

let reset () =
  recorded := [];
  stack := [];
  next_id := 0;
  request := -1;
  Hashtbl.reset counts

let count name v =
  if !on then
    Hashtbl.replace counts name
      (v +. Option.value (Hashtbl.find_opt counts name) ~default:0.0)

let span layer name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s =
      {
        id = !next_id;
        parent;
        layer;
        name;
        req = !request;
        t0 = Obs.now_ns ();
        t1 = 0L;
        child_ns = 0L;
      }
    in
    incr next_id;
    stack := s :: !stack;
    let close () =
      s.t1 <- Obs.now_ns ();
      stack := List.tl !stack;
      (match !stack with
      | p :: _ -> p.child_ns <- Int64.add p.child_ns (Int64.sub s.t1 s.t0)
      | [] -> ());
      recorded := s :: !recorded
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let duration s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e9
let self_seconds s = Int64.to_float (Int64.sub (Int64.sub s.t1 s.t0) s.child_ns) /. 1e9
let spans () = List.rev !recorded

(* Self seconds summed by key over the recorded spans. *)
let self_by key =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let k = key s in
      Hashtbl.replace tbl k
        (self_seconds s +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0))
    !recorded;
  tbl

let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.0

let write path =
  let oc = open_out path in
  output_string oc "[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"id\":%d,\"parent\":%d,\"layer\":%S,\"name\":%S,\"req\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}"
        (if i = 0 then "" else ",")
        s.id s.parent s.layer s.name s.req s.t0 s.t1)
    (spans ());
  output_string oc "\n]\n";
  close_out oc
