(** The [migsyn serve] daemon loop.

    A long-running Unix-domain-socket server speaking the newline-delimited
    JSON protocol of {!Protocol}.  One accept loop multiplexes every client
    connection with [select]; each readiness round drains the readable
    connections into a {e batch} of requests, answers cache hits from the
    {!Cache} immediately, fans the misses across a shared {!Par} domain
    pool (duplicate keys inside a batch coalesce into one synthesis), and
    writes responses back per connection in request order.

    Failure containment: a malformed line, an oversized payload, an unknown
    schema version, a bad flow script, a circuit no reader accepts, a
    failing synthesis — or any other exception while a request is prepared
    or synthesized — each produce a structured error envelope on that
    connection; the loop itself never dies on request input.  Every miss
    runs on the pool: a request's [xbar_*] costs are closed over its own
    [arch] when its scripts are parsed, so jobs share no state.  The daemon stops on a [shutdown] op or when the
    [stop] callback turns true (the CLI wires SIGINT/SIGTERM to it); both
    paths drain pending responses, shut the pool down (merging worker
    observability buffers), record the request/cache totals as manifest
    results, and remove the socket file — so [--ledger] manifests of a
    served session always carry the final counters. *)

type config = {
  socket_path : string;
  jobs : int;  (** worker domains of the shared synthesis pool (≥ 1) *)
  cache_budget_bytes : int;
  max_request_bytes : int;
      (** a request line beyond this answers an [oversized] error and the
          connection is closed (the stream cannot be resynchronized) *)
  stop : unit -> bool;  (** polled between batches; [true] ends the loop *)
  on_listening : unit -> unit;
      (** called once, after the socket is bound and listening *)
}

val default_config : socket_path:string -> config
(** [jobs = Par.recommended_jobs ()], 256 MiB cache budget, 8 MiB request
    cap, never stops on its own, no listening callback. *)

type summary = {
  requests : int;  (** request lines decoded (including errors) *)
  ok : int;
  errors : int;
  batches : int;  (** select rounds that carried at least one request *)
  max_batch : int;
  cache : Cache.stats;
}

val run : config -> summary
(** Bind, listen, serve until stopped, clean up, and return the totals.
    @raise Unix.Unix_error when the socket cannot be created or bound
    (reported by the CLI as [migsyn serve: error: ...]). *)
