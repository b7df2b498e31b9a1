(* serve_mix: a forked `migsyn serve --jobs 1` under two closed-loop client
   connections (each sends its next request when the previous answer has
   arrived), driven from one process.  The seeded mix is about four cache
   hits to one miss plus a fixed set of malformed lines:

     hits     repeats of the hit classes primed in set-up: Table III
              circuits under the canonical algorithms and one circuit of
              more than 10^3 gates
     misses   one-off Io.Gen.random_network circuits under the canonical
              algorithms; one in four runs an accept_if(xbar_weighted_maj)
              script with an arch, which the daemon runs inline on its
              accept loop
     bad      malformed lines, each answered with its structured error

   Every pass talks to a freshly forked and primed daemon, so the daemon's
   counters have a closed form per pass: hits = hit requests, misses =
   classes + misses, errors = bad lines, no coalescing, no evictions.

   The traced run replays the pass's request lines in-process through the
   daemon's public building blocks (Protocol, the Io readers,
   Mig_of_network, Cache, Mig_flows, Mig_equiv, Compile_mig, Blif) to get
   the service time per layer; client latency minus replayed service time
   is the time a request waited inside the daemon. *)

open Common
module Json = Obs.Json
module P = Serve.Protocol

let effort = 2
let hits_per_pass = 2000
let misses_per_pass = 500
let xbar_arch = "32x32"
let xbar_script = "cycle(2){accept_if(xbar_weighted_maj){push_up; omega_i3}}; push_up"
let canonical = [| "area"; "depth"; "rram-costs-imp"; "rram-costs-maj"; "steps" |]

let bad_lines =
  [
    ("{\"schema\":\"migsyn-serve/1\", truncated", "parse_error");
    ("{\"schema\":\"migsyn-serve/9\",\"op\":\"ping\"}", "bad_schema");
    ("{\"schema\":\"migsyn-serve/1\",\"op\":\"dance\"}", "unsupported_op");
    ( "{\"schema\":\"migsyn-serve/1\",\"op\":\"synth\",\"algorithm\":\"teleport\",\"circuit\":{\"format\":\"blif\",\"source\":\".model m\\n.inputs a\\n.outputs y\\n.names a y\\n1 1\\n.end\\n\"}}",
      "bad_request" );
  ]
  |> List.concat_map (fun b -> [ b; b; b ])

type kind = Hit of int | Miss of int | Bad of string

type request = { kind : kind; line : string; xbar : bool }

type hit_class = { label : string; cline : string; source : Logic.Network.t }

type daemon = { pid : int; socket : string; control : Serve.Client.t }

type env = {
  seed : int;
  classes : hit_class array;
  misses : (string * Logic.Network.t) array;  (** request line, source *)
  mix : request array;
  mutable daemon : daemon option;
  mutable fresh : bool;  (** primed and not yet driven *)
  mutable cold : string array;  (** stripped cold answer per class *)
  mutable rss_mb : float;
  mutable last : (request * float * string) array;  (** the latest client pass(es) *)
  mutable last_counts : (string * float) list;
}

let synth ?(flows = []) ?algorithm ?arch circuit =
  P.encode_request
    {
      P.id = None;
      op =
        P.Synth
          {
            P.circuit;
            flows;
            algorithm;
            effort = Some effort;
            jobs = None;
            cost = None;
            arch;
            realization = "maj";
            verify = true;
          };
    }

let inline net name = P.Inline { format = "blif"; source = Io.Blif.write_string ~model_name:name net }

let make_classes () =
  let table3 name alg =
    match Io.Benchmarks.find name with
    | Some e ->
        let net = e.Io.Benchmarks.build () in
        { label = name ^ "/" ^ alg; cline = synth ~algorithm:alg (inline net name); source = net }
    | None -> failwith ("perfbench: no bundled circuit " ^ name)
  in
  let large = Io.Gen.random_network ~name:"serve-large" ~inputs:24 ~gates:1500 ~outputs:12 () in
  Array.of_list
    [
      table3 "xor5_d" "steps";
      table3 "rd53f1" "area";
      table3 "misex1" "depth";
      table3 "con1f1" "rram-costs-maj";
      table3 "xor5_d" "rram-costs-imp";
      table3 "rd53f1" "steps";
      table3 "misex1" "steps";
      { label = "large/area"; cline = synth ~algorithm:"area" (inline large "large"); source = large };
    ]

let make_misses seed =
  Array.init misses_per_pass (fun i ->
      let name = Printf.sprintf "miss%d_%d" seed i in
      let net = Io.Gen.random_network ~name ~inputs:8 ~gates:40 ~outputs:4 () in
      let line =
        if i mod 4 = 3 then synth ~flows:[ xbar_script ] ~arch:xbar_arch (inline net name)
        else synth ~algorithm:canonical.(i mod Array.length canonical) (inline net name)
      in
      (line, net))

let make_mix seed classes misses =
  let rng = Logic.Prng.create (Logic.Prng.split_seed seed 7) in
  let n_classes = Array.length classes in
  let items =
    Array.concat
      [
        Array.init hits_per_pass (fun _ ->
            let c = Logic.Prng.int rng n_classes in
            { kind = Hit c; line = classes.(c).cline; xbar = false });
        Array.mapi (fun i (line, _) -> { kind = Miss i; line; xbar = i mod 4 = 3 }) misses;
        Array.of_list
          (List.map (fun (line, code) -> { kind = Bad code; line; xbar = false }) bad_lines);
      ]
  in
  Logic.Prng.shuffle rng items;
  items

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

let status j = match Json.member "status" j with Json.String s -> s | _ -> "?"
let stripped line = Json.to_string (P.strip_volatile (Json.of_string line))
let rpc_line conn line =
  Serve.Client.send_line conn line;
  Serve.Client.recv_line conn

let spawned = ref 0

(* The CLI that run.sh builds next to the benchmark. *)
let migsyn = "_build/default/bin/migsyn.exe"

let start_daemon () =
  (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr spawned;
  let socket = Printf.sprintf ".perfbench/serve-%d-%d.sock" (Unix.getpid ()) !spawned in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process migsyn
      [| migsyn; "serve"; "--socket"; socket; "--jobs"; "1" |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  match Serve.Client.connect ~retries:10_000 ~delay:0.001 socket with
  | control -> { pid; socket; control }
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e

let stop_daemon d =
  (try
     ignore (rpc_line d.control (P.encode_request { P.id = None; op = P.Shutdown }));
     Serve.Client.close d.control
   with _ -> ( try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] d.pid);
  if Sys.file_exists d.socket then Sys.remove d.socket

(* Fork a daemon and send one cold request per hit class. *)
let prime env =
  let d = start_daemon () in
  env.daemon <- Some d;
  env.cold <-
    Array.map
      (fun c ->
        let answer = rpc_line d.control c.cline in
        if status (Json.of_string answer) <> "ok" then
          failwith ("perfbench: priming " ^ c.label ^ " answered " ^ answer);
        stripped answer)
      env.classes;
  env.fresh <- true

let teardown env =
  Option.iter stop_daemon env.daemon;
  env.daemon <- None

let setup ~seed =
  let classes = make_classes () in
  let misses = make_misses seed in
  let env =
    {
      seed;
      classes;
      misses;
      mix = make_mix seed classes misses;
      daemon = None;
      fresh = false;
      cold = [||];
      rss_mb = 0.0;
      last = [||];
      last_counts = [];
    }
  in
  prime env;
  env

let daemon_metrics d =
  let m = Json.of_string (rpc_line d.control (P.encode_request { P.id = None; op = P.Metrics })) in
  let result = Json.member "result" m in
  let geti obj name =
    match Json.member name (Json.member obj result) with
    | Json.Int n -> n
    | _ -> failwith ("perfbench: daemon metrics miss " ^ obj ^ "." ^ name)
  in
  geti

(* ------------------------------------------------------------------ *)
(* One client pass                                                     *)
(* ------------------------------------------------------------------ *)

(* The two closed-loop connections, multiplexed by one thread with select:
   connection c sends requests c, c+2, c+4, ..., each as soon as the answer
   to its previous one has arrived. *)
type conn = { fd : Unix.file_descr; buf : Buffer.t; mutable next : int; mutable sent : int64 }

let connections = 2

let drive socket mix =
  let n = Array.length mix in
  let answers = Array.make n ("", 0.0) in
  let conns =
    Array.init connections (fun c ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        { fd; buf = Buffer.create 65536; next = c; sent = 0L })
  in
  let send c =
    if c.next < n then begin
      let line = mix.(c.next).line ^ "\n" in
      c.sent <- now_ns ();
      let rec write pos =
        if pos < String.length line then
          write (pos + Unix.write_substring c.fd line pos (String.length line - pos))
      in
      write 0
    end
  in
  let chunk = Bytes.create 65536 in
  let t0 = now_ns () in
  Array.iter send conns;
  let pending () = List.filter (fun c -> c.next < n) (Array.to_list conns) in
  while pending () <> [] do
    let ready, _, _ = Unix.select (List.map (fun c -> c.fd) (pending ())) [] [] (-1.0) in
    List.iter
      (fun fd ->
        let c = List.find (fun c -> c.fd = fd) (Array.to_list conns) in
        let k = Unix.read fd chunk 0 (Bytes.length chunk) in
        if k = 0 then failwith "perfbench: the daemon closed a connection";
        Buffer.add_subbytes c.buf chunk 0 k;
        let complete = match Bytes.index_opt chunk '\n' with Some i -> i < k | None -> false in
        if complete then begin
          let line = Buffer.contents c.buf in
          answers.(c.next) <- (String.sub line 0 (String.length line - 1), 1000.0 *. seconds_since c.sent);
          Buffer.clear c.buf;
          c.next <- c.next + connections;
          send c
        end)
      ready
  done;
  let wall = seconds_since t0 in
  Array.iter (fun c -> Unix.close c.fd) conns;
  (answers, wall)

let member_path path j = List.fold_left (fun j k -> Json.member k j) j path
let int_at path j = match member_path path j with Json.Int n -> n | _ -> 0

let pass env _ =
  if not env.fresh then begin
    teardown env;
    prime env
  end;
  env.fresh <- false;
  let d = Option.get env.daemon in
  let answers, wall_s = drive d.socket env.mix in
  let counter = daemon_metrics d in
  env.rss_mb <- max env.rss_mb (peak_rss_mb (Some d.pid));
  (* the oracle, after the timed window *)
  let gates = ref 0 and devices = ref 0 and steps = ref 0 in
  let add_quality j =
    gates := !gates + int_at [ "result"; "size" ] j;
    devices := !devices + int_at [ "result"; "cost"; "devices" ] j;
    steps := !steps + int_at [ "result"; "cost"; "latency" ] j
  in
  Array.iter (fun s -> add_quality (Json.of_string s)) env.cold;
  let failed =
    Array.fold_left ( + ) 0
      (Array.mapi
         (fun i (answer, _) ->
           match Json.of_string answer with
           | exception _ -> check false "serve_mix: request %d answered non-JSON %S" i answer
           | j -> (
               match env.mix.(i).kind with
               | Hit c ->
                   check
                     (Json.member "cache" j = Json.String "hit" && stripped answer = env.cold.(c))
                     "serve_mix: hit on %s differs from its cold answer" env.classes.(c).label
               | Miss m ->
                   add_quality j;
                   check
                     (status j = "ok"
                     && Json.member "cache" j = Json.String "miss"
                     &&
                     match member_path [ "result"; "network"; "source" ] j with
                     | Json.String blif -> Oracle.blif_agrees ~seed:env.seed (snd env.misses.(m)) blif
                     | _ -> false)
                     "serve_mix: miss %d answer fails the oracle: %s" m answer
               | Bad code ->
                   check
                     (status j = "error" && member_path [ "error"; "code" ] j = Json.String code)
                     "serve_mix: malformed line answered %s, expected %s" answer code))
         answers)
  in
  let n_hits = hits_per_pass and n_misses = Array.length env.classes + misses_per_pass in
  let n_bad = List.length bad_lines in
  let expect name got want =
    check (got = want) "serve_mix: daemon %s = %d, expected %d" name got want
  in
  let n_requests = Array.length env.mix in
  let counted =
    expect "requests.total" (counter "requests" "total")
      (Array.length env.classes + n_requests + 1)
    + expect "requests.errors" (counter "requests" "errors") n_bad
    + expect "cache.hits" (counter "cache" "hits") n_hits
    + expect "cache.misses" (counter "cache" "misses") n_misses
    + expect "cache.coalesced" (counter "cache" "coalesced") 0
    + expect "cache.evictions" (counter "cache" "evictions") 0
  in
  env.last <- Array.mapi (fun i (answer, ms) -> (env.mix.(i), ms, answer)) answers;
  env.last_counts <-
    [
      ("cache.hits", float_of_int (counter "cache" "hits"));
      ("cache.misses", float_of_int (counter "cache" "misses"));
      ("cache.coalesced", float_of_int (counter "cache" "coalesced"));
      ("cache.evictions", float_of_int (counter "cache" "evictions"));
      ( "cache.hit_ratio",
        float_of_int (counter "cache" "hits")
        /. float_of_int (counter "cache" "hits" + counter "cache" "misses") );
      ("server.batches", float_of_int (counter "requests" "batches"));
      ("server.max_batch", float_of_int (counter "requests" "max_batch"));
      ( "server.inline_jobs",
        float_of_int (Array.fold_left (fun acc r -> if r.xbar then acc + 1 else acc) 0 env.mix) );
    ];
  {
    wall_s;
    ops = n_requests;
    gates = !gates;
    devices = !devices;
    steps = !steps;
    attempted = n_requests + 1;
    failed = failed + min 1 counted;
    digest =
      Printf.sprintf "%d/%d/%d/%d" (counter "cache" "hits") (counter "cache" "misses")
        (counter "requests" "errors") (counter "requests" "total");
  }

let daemon_rss env = env.rss_mb

(* ------------------------------------------------------------------ *)
(* The traced run: in-process replay                                   *)
(* ------------------------------------------------------------------ *)

(* Two client passes, so the latency split carries at least 1,000 samples
   of each class. *)
let prepare_trace env =
  let first = pass env 0 in
  let earlier = env.last in
  let second = pass env 1 in
  env.last <- Array.append earlier env.last;
  [ first; second ]

let flow_label (s : P.synth) =
  match (s.P.flows, s.P.algorithm) with
  | [], Some "rram-costs-imp" -> "rram_imp"
  | [], Some "rram-costs-maj" -> "rram_maj"
  | [], Some alg -> alg
  | _ -> "script"

let encode json = Trace.span "serve.protocol" "encode" (fun () -> P.response_line json)

(* One request through the daemon's building blocks; returns "hit",
   "miss" or "error". *)
let serve_line cache line =
  match Trace.span "serve.protocol" "decode" (fun () -> P.decode_request line) with
  | Error (code, msg) ->
      ignore (encode (P.error_response ~id:None ~code msg));
      "error"
  | Ok { P.op = P.Synth s; _ } -> (
      match s.P.circuit with
      | P.Inline { source; _ } -> (
          let net = parse Io.Blif.parse_string source in
          let script =
            match (s.P.flows, s.P.algorithm) with
            | [ f ], None -> Some f
            | [], Some alg -> Core.Mig_flows.canonical_script ~effort alg
            | _ -> None
          in
          match script with
          | None ->
              ignore (encode (P.error_response ~id:None ~code:P.Bad_request "unknown algorithm"));
              "error"
          | Some script ->
              let arch =
                match Option.map Core.Rram_cost.parse_arch s.P.arch with
                | Some (Ok a) -> a
                | _ -> Core.Rram_cost.Unbounded_serial
              in
              let mig = convert net in
              let canon, key =
                Trace.span "serve.cache" "key" (fun () ->
                    Serve.Cache.canonical_key ~flow:script
                      ~arch:(Core.Rram_cost.arch_to_string arch)
                      ~realization:s.P.realization ~verify:s.P.verify mig)
              in
              match Trace.span "serve.cache" "lookup" (fun () -> Serve.Cache.find cache key) with
              | Some payload ->
                  ignore (encode (P.ok_response ~id:None ~cache:"hit" ~seconds:0.0 ~result:payload));
                  "hit"
              | None ->
                  Serve.Cache.note_miss cache;
                  if s.P.arch <> None then Core.Mig_flows.set_arch arch;
                  let opt =
                    flow (flow_label s) (fun () ->
                        Core.Mig_flows.run ~name:"serve" (Core.Mig_flows.parse_exn script) canon)
                  in
                  let ok = equiv opt net in
                  let c = compile ~arch Core.Rram_cost.Maj opt in
                  let blif = write_blif ~model_name:"served" opt in
                  let payload =
                    Json.Assoc
                      [
                        ("verified", Json.Bool ok);
                        ("size", Json.Int (Core.Mig.size opt));
                        ("devices", Json.Int c.Rram.Compile_mig.cost.Core.Rram_cost.devices);
                        ("network", Json.String blif);
                      ]
                  in
                  Trace.span "serve.cache" "store" (fun () -> Serve.Cache.store cache key payload);
                  ignore (encode (P.ok_response ~id:None ~cache:"miss" ~seconds:0.0 ~result:payload));
                  "miss")
      | P.File _ -> "error")
  | Ok _ -> "error"

let replay env _ =
  let cache = Serve.Cache.create () in
  let was_on = !Trace.on in
  Trace.on := false;
  Array.iter (fun c -> ignore (serve_line cache c.cline)) env.classes;
  Trace.on := was_on;
  let t0 = now_ns () in
  let outcomes =
    Array.mapi
      (fun i r ->
        Trace.request := i;
        Trace.span "serve.server" "request" (fun () -> serve_line cache r.line))
      env.mix
  in
  Trace.request := -1;
  let wall_s = seconds_since t0 in
  let failed =
    Array.fold_left ( + ) 0
      (Array.mapi
         (fun i got ->
           let want = match env.mix.(i).kind with Hit _ -> "hit" | Miss _ -> "miss" | Bad _ -> "error" in
           check (got = want) "serve_mix: replayed request %d was a %s, expected %s" i got want)
         outcomes)
  in
  let count k = Array.fold_left (fun acc o -> if o = k then acc + 1 else acc) 0 outcomes in
  {
    wall_s;
    ops = Array.length outcomes;
    gates = 0;
    devices = 0;
    steps = 0;
    attempted = Array.length outcomes;
    failed;
    digest = Printf.sprintf "%d/%d/%d" (count "hit") (count "miss") (count "error");
  }

(* Client latency split by class, daemon counters, and the wait inside the
   daemon: client latency minus replayed service time, at the median. *)
let layer_extra env =
  let lat pick = List.filter_map pick (Array.to_list env.last) |> sorted_array in
  let hits = lat (fun (r, ms, _) -> match r.kind with Hit _ -> Some ms | _ -> None) in
  let misses = lat (fun (r, ms, _) -> match r.kind with Miss _ -> Some ms | _ -> None) in
  let service kind_of =
    List.filter_map
      (fun s ->
        if s.Trace.parent = -1 && s.Trace.req >= 0 && kind_of env.mix.(s.Trace.req).kind then
          Some (1000.0 *. Trace.duration s)
        else None)
      (Trace.spans ())
  in
  let hit_service = service (function Hit _ -> true | _ -> false) in
  let miss_service = service (function Miss _ -> true | _ -> false) in
  env.last_counts
  @ [
      ("serve.hit_p50_ms", quantile hits 0.5);
      ("serve.hit_p99_ms", quantile hits 0.99);
      ("serve.hit_samples", float_of_int (Array.length hits));
      ("serve.miss_p50_ms", quantile misses 0.5);
      ("serve.miss_p99_ms", quantile misses 0.99);
      ("serve.miss_samples", float_of_int (Array.length misses));
      ("server.hit_wait_ms", quantile hits 0.5 -. median hit_service);
      ("server.miss_wait_ms", quantile misses 0.5 -. median miss_service);
    ]
