(* The canonical benchmark: one command, three workloads, every answer
   checked independently of the engine.

     canon --workload star-enum|complex-page|http-live --seed N
           --seconds S --trace 0|1 [--corrupt alter|drop]

   With --trace 0 the run is untraced and reports the end-to-end
   metrics; with --trace 1 every operation is replayed layer by layer
   (see Replay) and the per-layer metrics are reported. The last line
   of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   A wrong answer prints the reason on standard error and exits 1
   without a result. *)

open Amber

let now = Unix.gettimeofday

let started = now ()
let log fmt = Printf.ksprintf (fun s -> Printf.printf "[%6.1fs] %s\n%!" (now () -. started) s) fmt

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Scratch space inside the checkout (ignored by git). *)
let work_root = ".canonbench-run"

(* An operation fails when it raises — a [Deadline.Expired] past this
   generous budget included — or answers a non-200 status. *)
let op_budget = 30.0

(* p95 needs at least ten samples beyond it. *)
let min_samples = 200

(* ---- arguments ------------------------------------------------------- *)

type workload = Star_enum | Complex_page | Http_live

type args = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  corrupt : string option;
}

let workload_name = function
  | Star_enum -> "star-enum"
  | Complex_page -> "complex-page"
  | Http_live -> "http-live"

let usage () =
  prerr_endline
    "usage: canon --workload star-enum|complex-page|http-live --seed N --seconds S --trace 0|1 \
     [--corrupt alter|drop]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let corrupt = ref None in
  let rec go = function
    | "--workload" :: w :: rest ->
        workload :=
          (match w with
          | "star-enum" -> Some Star_enum
          | "complex-page" -> Some Complex_page
          | "http-live" -> Some Http_live
          | _ -> usage ());
        go rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); go rest
    | "--corrupt" :: ("alter" | "drop" as c) :: rest -> corrupt := Some c; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0. ->
      { workload; seed; seconds; trace; corrupt = !corrupt }
  | _ -> usage ()

(* ---- statistics ------------------------------------------------------ *)

let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

let median xs = quantile xs 0.5
let mean xs = List.fold_left ( +. ) 0. xs /. float (max 1 (List.length xs))
let sum xs = List.fold_left ( +. ) 0. xs

(* ---- checking -------------------------------------------------------- *)

exception Wrong_answer of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong_answer s)) fmt

let short (q : Inputs.query) =
  let t = String.map (fun c -> if c = '\n' then ' ' else c) q.Inputs.text in
  if String.length t > 160 then String.sub t 0 160 ^ "..." else t

(* The negative test: damage the first answer the benchmark checks. *)
let corruption = ref None

let maybe_corrupt rows =
  match !corruption with
  | None -> rows
  | Some kind -> (
      corruption := None;
      match (kind, rows) with
      | "drop", _ :: rest -> rest
      | "alter", (_ :: (_ :: _ as cells)) :: rest ->
          (* An existing term in the wrong place: the row stops being an
             embedding while every term stays known. *)
          (List.nth cells (List.length cells - 1) :: cells) :: rest
      | _ -> rows)

(* The digest of each query's checked first answer, by query text. *)
let digests : (string, int) Hashtbl.t = Hashtbl.create 256

(* A query's first answer is checked in full against the benchmark's
   copy of the data; later answers must repeat its digest. *)
let check_answer oracle (q : Inputs.query) ~variables ~rows =
  match Hashtbl.find_opt digests q.Inputs.text with
  | Some digest ->
      if List.length rows <> q.Inputs.expected || Oracle.digest rows <> digest then
        wrong "answer differs from the checked first answer: %s" (short q)
  | None -> (
      let rows = maybe_corrupt rows in
      match Oracle.check_rows oracle q.Inputs.bgp ~variables ~rows ~expected:q.Inputs.expected with
      | Oracle.Ok -> Hashtbl.add digests q.Inputs.text (Oracle.digest rows)
      | Oracle.Wrong msg -> wrong "%s: %s" msg (short q))

(* ---- failures -------------------------------------------------------- *)

let failures : (string, int) Hashtbl.t = Hashtbl.create 8

let fail name =
  Hashtbl.replace failures name (1 + Option.value ~default:0 (Hashtbl.find_opt failures name))

let failed () = Hashtbl.fold (fun _ n acc -> acc + n) failures 0

let failure_name = function
  | Deadline.Expired -> "deadline"
  | e -> Printexc.to_string e

(* ---- output ---------------------------------------------------------- *)

let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics

let finish ~args ~attempted =
  let name = workload_name args.workload in
  Printf.printf "workload %s seed %d trace %b: attempted %d, failed %d\n" name args.seed args.trace
    attempted (failed ());
  Hashtbl.iter (fun n k -> Printf.printf "  failed %s: %d\n" n k) failures;
  let ms = List.rev !metrics in
  List.iter (fun (n, v, u) -> Printf.printf "  %-32s %14.4f %s\n" n v u) ms;
  let body =
    String.concat ","
      (List.map
         (fun (n, v, u) ->
           let v = if Float.is_finite v then v else 0. in
           Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" n v u)
         ms)
  in
  Printf.printf "{\"correct\":true,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" attempted
    (failed ()) body

(* ---- set-up helpers ---------------------------------------------------- *)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  remove_tree path;
  List.fold_left
    (fun acc part ->
      let p = if acc = "" then part else Filename.concat acc part in
      (try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      p)
    "" (String.split_on_char '/' path)
  |> ignore

(* Median of [times] timed set-ups, each from a compacted heap; returns
   the last result. Boots are cheap and builds are not: http-live boots
   nine times, the in-process workloads build three times. *)
let repeated_setup ?(times = 3) f =
  let last = ref None and samples = ref [] in
  for _ = 1 to times do
    last := None;
    Gc.compact ();
    let v, dt = timed f in
    samples := dt :: !samples;
    last := Some v
  done;
  (Option.get !last, median !samples)

let resident_mb e = float (List.fold_left (fun acc (_, b) -> acc + b) 0 (Engine.resident_bytes e)) /. 1e6

(* Same configuration as [amber serve]: no row cap, open objects off
   (on, the star satellites would take the literal-binding path and the
   rewriter would only hint), plus the generous per-query budget. *)
let endpoint_config =
  {
    Endpoint.default_config with
    port = 0;
    timeout = Some op_budget;
    limit = None;
    open_objects = false;
  }

(* The endpoint serves one connection at a time on its own domain. The
   allocation of each request is read on that domain. *)
type server = {
  srv : Endpoint.t;
  port : int;
  stop : bool Atomic.t;
  allocs : float list ref;
  lock : Mutex.t;
  domain : unit Domain.t;
}

let start_server srv =
  let stop = Atomic.make false and allocs = ref [] and lock = Mutex.create () in
  let domain =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          match Obs.Resource.gc_delta (fun () -> Endpoint.serve ~max_requests:1 srv) with
          | (), gc -> Mutex.protect lock (fun () -> allocs := Obs.Resource.allocated_bytes gc :: !allocs)
          | exception Unix.Unix_error (((Unix.EINTR | Unix.ECONNABORTED) as err), _, _) ->
              (* [serve] does not retry a failed accept: serve on, or the
                 next request would hang. *)
              Printf.eprintf "server domain: accept failed with %s, serving on\n%!"
                (Unix.error_message err)
          | exception e ->
              Printf.eprintf "server domain: %s\n%!" (Printexc.to_string e);
              raise e
        done)
  in
  { srv; port = Endpoint.bound_port srv; stop; allocs; lock; domain }

let take_allocs s = Mutex.protect s.lock (fun () -> let a = !(s.allocs) in s.allocs := []; a)

let stop_server s =
  Atomic.set s.stop true;
  (* Wake the accept loop with one last request. *)
  (try ignore (Http_client.request ~port:s.port ~meth:"GET" ~target:"/healthz" ()) with _ -> ());
  Domain.join s.domain;
  Endpoint.stop s.srv

(* ---- results JSON ---------------------------------------------------- *)

let rows_of_json body =
  let j = try Obs.Json.parse body with Obs.Json.Malformed m -> wrong "malformed results JSON: %s" m in
  let field k v = Option.bind (Obs.Json.member k v) Obs.Json.to_string in
  let vars =
    match Obs.Json.member "head" j with
    | Some h -> List.filter_map Obs.Json.to_string (Option.fold ~none:[] ~some:Obs.Json.to_list (Obs.Json.member "vars" h))
    | None -> wrong "results JSON without head"
  in
  let bindings =
    match Obs.Json.member "results" j with
    | Some r -> Option.fold ~none:[] ~some:Obs.Json.to_list (Obs.Json.member "bindings" r)
    | None -> wrong "results JSON without results"
  in
  let term b =
    match (field "type" b, field "value" b) with
    | Some "uri", Some v -> Rdf.Term.Iri v
    | Some "bnode", Some v -> Rdf.Term.Bnode v
    | Some ("literal" | "typed-literal"), Some v ->
        Rdf.Term.Literal { Rdf.Term.value = v; datatype = field "datatype" b; lang = field "xml:lang" b }
    | _ -> wrong "bad term in results JSON"
  in
  (vars, List.map (fun b -> List.map (fun v -> Option.map term (Obs.Json.member v b)) vars) bindings)

let same_set a b = Replay.sorted_rows a = Replay.sorted_rows b

(* ---- workloads ------------------------------------------------------- *)

let skew_of = function Complex_page -> 1.8 | Star_enum | Http_live -> 0.0

(* The run's inputs: the graph, the benchmark's own copy of it and the
   workload's queries. The corpus the queries are carved from is dropped
   here, and callers drop the triples once the engine is built, so that
   during timing the heap holds little besides the engine and the
   checker's copy. *)
let inputs workload =
  let triples = Inputs.graph ~skew:(skew_of workload) in
  let oracle = Oracle.of_triples triples in
  let corpus = Datagen.Workload.corpus triples in
  let queries, left_out =
    match workload with
    | Star_enum -> (Inputs.star_enum_queries oracle corpus ~count:50, [])
    | Complex_page -> Inputs.complex_page_queries oracle corpus ~count:5500
    | Http_live -> (Inputs.http_read_queries oracle corpus ~count:64, [])
  in
  let sizes = List.sort_uniq compare (List.map (fun (q : Inputs.query) -> q.Inputs.size) queries) in
  let rows = List.map (fun (q : Inputs.query) -> float q.Inputs.expected) queries in
  log "inputs: %d triples; %d queries, sizes %s; rows min %.0f median %.0f max %.0f"
    (List.length triples) (List.length queries)
    (String.concat "," (List.map (fun s ->
         Printf.sprintf "%d:%d" s
           (List.length (List.filter (fun (q : Inputs.query) -> q.Inputs.size = s) queries)))
       sizes))
    (quantile rows 0.) (median rows) (quantile rows 1.);
  if left_out <> [] then
    log "left out: %d queries the engine cannot finish in about a second (fixed list, see inputs.ml)"
      (List.length left_out);
  (triples, oracle, queries, left_out)

(* Warm-up pass: every query once, untimed, under the operation budget;
   each answer is checked in full. A query that fails here stays in the
   stream: its timed turns fail again and are counted, or are checked
   in full the first time they answer. *)
let warm_up oracle e (queries : Inputs.query list) =
  List.iter
    (fun (q : Inputs.query) ->
      match Engine.query_string ~timeout:op_budget e q.Inputs.text with
      | a -> check_answer oracle q ~variables:a.Engine.variables ~rows:a.Engine.rows
      | exception e -> log "warm-up failure %s: %s" (failure_name e) (short q))
    queries;
  queries

let shuffled ~seed round l =
  let a = Array.of_list l in
  let rng = Random.State.make [| seed; round |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The query stream of an in-process workload, warmed up. star-enum
   repeats its 50 queries in whole rounds, each in a fresh seeded order,
   and asks [enough] only between rounds. complex-page never repeats a
   query: it takes its pool in chunks of 500, each in a seeded order,
   and warms a chunk up only when the previous one runs out — some 500
   queries before their turn, so the engine's LRUs have turned over by
   then. *)
let in_process_stream args oracle engine queries =
  let cur = ref [] and round = ref 0 in
  let refill =
    match args.workload with
    | Star_enum ->
        let kept = warm_up oracle engine queries in
        fun ~enough ->
          if !round > 0 && enough () then [] else shuffled ~seed:args.seed !round kept
    | Complex_page | Http_live ->
        let pool = ref queries in
        fun ~enough ->
          if enough () then []
          else begin
            let chunk = List.filteri (fun i _ -> i < 500) !pool in
            pool := List.filteri (fun i _ -> i >= 500) !pool;
            warm_up oracle engine (shuffled ~seed:args.seed !round chunk)
          end
  in
  let rec next ~enough =
    match !cur with
    | x :: rest when args.workload = Star_enum || not (enough ()) ->
        cur := rest;
        Some x
    | _ :: _ -> None
    | [] -> (
        match refill ~enough with
        | [] -> None
        | l ->
            incr round;
            cur := l;
            next ~enough)
  in
  next

(* ---- untraced in-process run ------------------------------------------ *)

let run_in_process args =
  let triples, oracle, queries, _ = inputs args.workload in
  let engine, setup_s = repeated_setup (fun () -> Engine.build triples) in
  log "set-up: %.3fs" setup_s;
  let resident = resident_mb engine in
  log "resident: %.1f MB" resident;
  let next = in_process_stream args oracle engine queries in
  log "warm-up done";
  Gc.compact ();
  let lat = ref [] and allocs = ref [] and busy = ref 0. and attempted = ref 0 in
  let enough () = !busy >= args.seconds && !attempted >= min_samples in
  let rec loop () =
    match next ~enough with
    | None -> ()
    | Some (q : Inputs.query) ->
        incr attempted;
        let g0 = Obs.Resource.gc_mark () in
        let t0 = now () in
        (match Engine.query_string ~timeout:op_budget engine q.Inputs.text with
        | a ->
            let dt = now () -. t0 in
            allocs := Obs.Resource.allocated_bytes (Obs.Resource.gc_since g0) :: !allocs;
            busy := !busy +. dt;
            lat := dt :: !lat;
            check_answer oracle q ~variables:a.Engine.variables ~rows:a.Engine.rows
        | exception e ->
            busy := !busy +. (now () -. t0);
            fail (failure_name e));
        loop ()
  in
  loop ();
  log "timed: %d operations" !attempted;
  metric "setup_s" "s" setup_s;
  metric "throughput_ops" "1/s" (float (List.length !lat) /. !busy);
  metric "latency_p50_ms" "ms" (1000. *. median !lat);
  metric "latency_p95_ms" "ms" (1000. *. quantile !lat 0.95);
  metric "alloc_mb_per_op" "MB" (mean !allocs /. 1e6);
  metric "resident_mb" "MB" resident;
  !attempted

(* ---- http-live ------------------------------------------------------ *)

type live_setup = {
  oracle : Oracle.t;
  reads : Inputs.query list;
  writes : Inputs.writes;
  model : Inputs.Model.t;
  dir : string;
  mutable batch : int;  (* next write batch *)
}

(* Build the star-enum graph, write it out as a live directory and send
   it one write batch per write group, so every group has been touched
   before timing starts. *)
let prepare_live args =
  let triples, oracle, reads, _ = inputs Http_live in
  let writes = Inputs.writes ~seed:args.seed triples ~reads in
  log "writes: %d groups of %d+%d triples; %d base triples on the written predicates"
    Inputs.write_groups Inputs.fresh_per_group Inputs.base_per_group
    (List.length writes.Inputs.base_triples);
  let dir = Printf.sprintf "%s/http-live-%d/live" work_root args.seed in
  fresh_dir (Filename.dirname dir);
  let live = Live_engine.of_engine ~dir (Engine.build triples) in
  let model = Inputs.Model.create writes in
  for i = 0 to Inputs.write_groups - 1 do
    let adds, dels = Inputs.batch writes i in
    ignore (Live_engine.update live ~adds ~dels);
    Inputs.Model.apply model ~adds ~dels
  done;
  { oracle; reads; writes; model; dir; batch = Inputs.write_groups }

(* One round: every read as many times as its Zipf popularity gives it
   in 200 draws (s = 1.1, at least once; the reads are in ascending
   answer size, so the smallest are hottest), in a seeded order, with a
   write after every [reads_per_write] reads. Exact quotas rather than
   random draws: drawn mixes moved the read p95 by half between seeds.
   The popularity law and the mix are the benchmark's choice, not taken
   from a published workload: reads dominate, and writes are frequent
   enough to keep the overlay engine changing under them. *)
let reads_per_write = 4

let http_round ~seed reads =
  let n = List.length reads in
  let weight k = 1. /. (float (k + 1) ** 1.1) in
  let total = List.fold_left ( +. ) 0. (List.init n weight) in
  let quota =
    List.concat
      (List.mapi (fun k r -> List.init (max 1 (Float.to_int (Float.round (200. *. weight k /. total)))) (fun _ -> r)) reads)
  in
  List.concat_map
    (fun (i, r) -> if i mod reads_per_write = reads_per_write - 1 then [ `Read r; `Write ] else [ `Read r ])
    (List.mapi (fun i r -> (i, r)) (shuffled ~seed 0 quota))

let next_batch ls =
  let adds, dels = Inputs.batch ls.writes ls.batch in
  ls.batch <- ls.batch + 1;
  Inputs.Model.apply ls.model ~adds ~dels;
  (adds, dels)

(* A delta must hold at least the model's net change from the base. *)
let check_net ls ~what ~delta_adds ~delta_dels =
  let net_adds, net_dels = Inputs.Model.net ls.model in
  if delta_adds < net_adds || delta_dels < net_dels then
    wrong "%s: delta %d+/%d- is smaller than the net change %d+/%d-" what delta_adds delta_dels net_adds
      net_dels

let model_rows ls keep =
  List.filter_map
    (fun ({ Rdf.Triple.subject; predicate; obj } as tr) ->
      if keep tr then Some [ Some predicate; Some subject; Some obj ] else None)
    (Inputs.Model.live ls.model)

(* After a write, the written triples' subjects: for each (subject,
   predicate) pair of the batch, the engine's objects must be the
   model's. *)
let check_touched ls e ~adds ~dels =
  let pairs =
    List.sort_uniq compare
      (List.map (fun (tr : Rdf.Triple.t) -> (tr.Rdf.Triple.subject, tr.Rdf.Triple.predicate)) (adds @ dels))
  in
  List.iter
    (fun (s, p) ->
      let got =
        (Engine.query_string e
           (Printf.sprintf "SELECT ?o WHERE { %s %s ?o }" (Rdf.Term.to_string s) (Rdf.Term.to_string p)))
          .Engine.rows
        |> List.map (fun row -> Some p :: Some s :: row)
      in
      let expected =
        model_rows ls (fun tr -> tr.Rdf.Triple.subject = s && tr.Rdf.Triple.predicate = p)
      in
      if not (same_set got expected) then
        wrong "after /update: %s %s holds %d objects, the model %d" (Rdf.Term.to_string s)
          (Rdf.Term.to_string p) (List.length got) (List.length expected))
    pairs

(* The live data on the written predicates must be the model's. *)
let check_live ls ~what e ~delta_adds ~delta_dels =
  let got =
    List.concat_map
      (fun p ->
        (Engine.query_string e (Printf.sprintf "SELECT ?s ?o WHERE { ?s <%s> ?o }" p)).Engine.rows
        |> List.map (fun row -> Some (Rdf.Term.Iri p) :: row))
      ls.writes.Inputs.predicates
  in
  let expected = model_rows ls (fun _ -> true) in
  if not (same_set got expected) then
    wrong "%s: the written predicates hold %d triples, the model %d" what (List.length got)
      (List.length expected);
  check_net ls ~what ~delta_adds ~delta_dels

(* Checks an /update response: the batch sizes it echoes, the delta
   counts against the model's net change, and the written subjects of
   the epoch it published against the model. Returns the reported delta
   counts. *)
let check_update_response ls live ~adds ~dels body =
  let j = try Obs.Json.parse body with Obs.Json.Malformed m -> wrong "malformed /update JSON: %s" m in
  let num k = match Option.bind (Obs.Json.member k j) Obs.Json.to_float with
    | Some f -> int_of_float f | None -> wrong "/update JSON without %s" k
  in
  if num "added" <> List.length adds || num "removed" <> List.length dels then
    wrong "/update echoed %d+/%d-, the batch was %d+/%d-" (num "added") (num "removed")
      (List.length adds) (List.length dels);
  let delta_adds = num "delta_adds" and delta_dels = num "delta_dels" in
  check_net ls ~what:"after /update" ~delta_adds ~delta_dels;
  check_touched ls (Live_engine.engine (Live_engine.pin live)) ~adds ~dels;
  (delta_adds, delta_dels)

(* A clean restart: the reopened directory holds the model's data and the
   delta the last /update reported. *)
let check_reopen ls (delta_adds, delta_dels) =
  let ep = Live_engine.pin (Live_engine.open_dir ls.dir) in
  let delta = Live_engine.delta ep in
  if Delta.add_count delta <> delta_adds || Delta.del_count delta <> delta_dels then
    wrong "reopened live directory holds delta %d+/%d-, the last /update reported %d+/%d-"
      (Delta.add_count delta) (Delta.del_count delta) delta_adds delta_dels;
  check_live ls ~what:"after reopen" (Live_engine.engine ep) ~delta_adds ~delta_dels

(* The last response body of each read that was parsed and compared. *)
let compared_bodies : (string, string) Hashtbl.t = Hashtbl.create 64

(* A read's answer, checked: the HTTP rows equal [Engine.query] on the
   pinned epoch as a set, and that answer is an embedding set with the
   independent count (first time) or repeats its digest. A body equal
   byte for byte to one already parsed and compared is not parsed again:
   its rows equal that earlier answer, whose digest the current one
   repeats. *)
let check_read ls live (q : Inputs.query) body =
  let a = Engine.query (Live_engine.engine (Live_engine.pin live)) q.Inputs.ast in
  if Hashtbl.find_opt compared_bodies q.Inputs.text <> Some body then begin
    let vars, http_rows = rows_of_json body in
    let http_rows = maybe_corrupt http_rows in
    if vars <> a.Engine.variables || not (same_set http_rows a.Engine.rows) then
      wrong "HTTP answer (%d rows) differs from Engine.query on the same epoch (%d rows): %s"
        (List.length http_rows) (List.length a.Engine.rows) (short q);
    Hashtbl.replace compared_bodies q.Inputs.text body
  end;
  check_answer ls.oracle q ~variables:a.Engine.variables ~rows:a.Engine.rows

let run_http args =
  let ls = prepare_live args in
  Gc.compact ();
  let setup_s =
    snd
      (repeated_setup ~times:9 (fun () ->
           Endpoint.stop (Endpoint.boot { endpoint_config with live_dir = Some ls.dir })))
  in
  log "set-up: %.3fs" setup_s;
  let live = Live_engine.open_dir ls.dir in
  let server = start_server (Endpoint.create_live ~config:endpoint_config live) in
  let attempted = ref 0 in
  let last_delta =
    let d = Live_engine.delta (Live_engine.pin live) in
    ref (Delta.add_count d, Delta.del_count d)
  in
  Fun.protect
    ~finally:(fun () -> stop_server server)
    (fun () ->
      (* Warm-up: every read once, fully checked. *)
      List.iter
        (fun (q : Inputs.query) ->
          match Http_client.get_sparql ~port:server.port q.Inputs.text with
          | 200, body -> check_read ls live q body
          | status, _ -> log "warm-up failure: status %d: %s" status (short q))
        ls.reads;
      log "warm-up done";
      let resident = resident_mb (Live_engine.engine (Live_engine.pin live)) in
      let round = http_round ~seed:args.seed ls.reads in
      ignore (take_allocs server);
      let lat = ref [] and upd = ref [] and busy = ref 0. in
      (* At least three rounds: the read p95 sits in the few largest
         answers, and two rounds left it at the mercy of one slow one. *)
      let enough () = !busy >= args.seconds && List.length !lat >= 3 * min_samples in
      let op = function
        | `Read (q : Inputs.query) -> (
            let t0 = now () in
            match Http_client.get_sparql ~port:server.port q.Inputs.text with
            | 200, body ->
                let dt = now () -. t0 in
                busy := !busy +. dt;
                lat := dt :: !lat;
                check_read ls live q body
            | status, _ -> busy := !busy +. (now () -. t0); fail (Printf.sprintf "read status %d" status)
            | exception e -> busy := !busy +. (now () -. t0); fail (failure_name e))
        | `Write -> (
            let adds, dels = next_batch ls in
            let t0 = now () in
            match Http_client.post_update ~port:server.port ~adds ~dels with
            | 200, body ->
                let dt = now () -. t0 in
                busy := !busy +. dt;
                upd := dt :: !upd;
                last_delta := check_update_response ls live ~adds ~dels body
            | status, _ -> busy := !busy +. (now () -. t0); fail (Printf.sprintf "update status %d" status)
            | exception e -> busy := !busy +. (now () -. t0); fail (failure_name e))
      in
      while not (!attempted > 0 && enough ()) do
        List.iter (fun o -> incr attempted; op o) round;
        check_live ls ~what:"after a round" (Live_engine.engine (Live_engine.pin live))
          ~delta_adds:(fst !last_delta) ~delta_dels:(snd !last_delta)
      done;
      let allocs = take_allocs server in
      log "timed: %d operations (%d reads, %d writes), delta %d+/%d- triples" !attempted
        (List.length !lat) (List.length !upd) (fst !last_delta) (snd !last_delta);
      metric "setup_s" "s" setup_s;
      metric "throughput_ops" "1/s" (float (List.length !lat + List.length !upd) /. !busy);
      metric "latency_p50_ms" "ms" (1000. *. median !lat);
      metric "latency_p95_ms" "ms" (1000. *. quantile !lat 0.95);
      metric "alloc_mb_per_op" "MB" (mean allocs /. 1e6);
      metric "resident_mb" "MB" resident;
      (* Every end-to-end metric must be reported by every workload, and
         only this one has a write path: the write round trip is logged
         here; per layer it is live_engine.update_ms. *)
      log "POST /update round trip: p50 %.3f ms, p95 %.3f ms; reads took %.0f%% of operation time"
        (1000. *. median !upd) (1000. *. quantile !upd 0.95)
        (100. *. sum !lat /. !busy));
  check_reopen ls !last_delta;
  remove_tree (Filename.dirname ls.dir);
  !attempted

(* The per-layer metrics, in report order. Timings are per-operation
   medians unless the name says otherwise; ratios are over the run. *)
let per_layer =
  [
    ("parser.parse_ms", "ms"); ("rewrite.apply_ms", "ms"); ("rewrite.steps", "count");
    ("query_graph.build_ms", "ms"); ("decompose.plan_ms", "ms"); ("analysis.screen_ms", "ms");
    ("matcher.seed_ms", "ms"); ("matcher.search_ms", "ms"); ("matcher.candidates_scanned", "count");
    ("matcher.index_probes", "count"); ("matcher.probe_cache_hit_ratio", "ratio");
    ("engine.lru_hit_ratio", "ratio"); ("embedding.rows_ms", "ms"); ("embedding.ns_per_row", "ns");
    ("embedding.alloc_mb", "MB"); ("engine.query_ms", "ms"); ("engine.unattributed_ms", "ms");
    ("results.to_json_ms", "ms"); ("results.bytes_per_row", "bytes");
    ("endpoint.handle_request_ms", "ms"); ("endpoint.transport_ms", "ms");
    ("live_engine.update_ms", "ms"); ("live_engine.manifest_bytes", "bytes");
    ("delta.triples", "count"); ("database.of_triples_s", "s"); ("attribute_index.build_s", "s");
    ("synopsis_index.build_s", "s"); ("neighbourhood_index.build_s", "s"); ("stats.compute_s", "s");
    ("snapshot.load_s", "s"); ("resident.adjacency_mb", "MB"); ("resident.attribute_mb", "MB");
    ("resident.synopsis_mb", "MB"); ("resident.neighbourhood_mb", "MB");
    ("posting.lists_raw", "count"); ("posting.lists_ef", "count"); ("posting.lists_blocked", "count");
    ("workload.left_out_slow", "count");
  ]

(* ---- traced run ---------------------------------------------------------- *)

(* Answers served in the traced run: http-live's reads are all smaller;
   serving star-enum's largest answers as results JSON three times over
   would leave no time for a whole round of its queries. *)
let serve_rows = 3_000

(* A left-out query still counts as slow when it takes longer than this. *)
let slow_budget = 1.0

(* Every workload replays its operations through every layer: the read
   pipeline, serialization, the request handler and a loopback round
   trip, and — a write after every [reads_per_write] reads — the live
   engine's update path. In-process workloads exercise the serving and
   write layers on their own graph through a static endpoint and a live
   directory made from their engine; their end-to-end metrics never
   include them. Like the untraced run, the traced one covers whole
   rounds: star-enum every one of its queries, http-live every read of
   its round, complex-page at least [min_samples] queries. *)
let run_traced args =
  let triples, oracle, queries, left_out = inputs args.workload in
  Replay.build_layers triples;
  Gc.compact ();
  let engine = Engine.build triples in
  (* How many left-out queries the engine still cannot finish in time. *)
  let left_out_slow =
    List.length
      (List.filter
         (fun (q : Inputs.query) ->
           match Engine.query_string ~timeout:slow_budget engine q.Inputs.text with
           | _ -> false
           | exception Deadline.Expired -> true)
         left_out)
  in
  (* http-live's writes must avoid the predicates its reads mention; the
     in-process reads never see the probe's live directory. *)
  let http_reads =
    match args.workload with
    | Http_live -> warm_up oracle engine queries
    | Star_enum | Complex_page -> []
  in
  let dir = Printf.sprintf "%s/trace-%s-%d/live" work_root (workload_name args.workload) args.seed in
  fresh_dir (Filename.dirname dir);
  let writes = Inputs.writes ~seed:args.seed triples ~reads:http_reads in
  let live = Live_engine.of_engine ~dir engine in
  for i = 0 to Inputs.write_groups - 1 do
    let adds, dels = Inputs.batch writes i in
    ignore (Live_engine.update live ~adds ~dels)
  done;
  let (_ : Engine.t), dt =
    Replay.span "snapshot.load" (fun () -> Engine.load_snapshot (Filename.concat dir "gen-0.amberix"))
  in
  Replay.sample "snapshot.load_s" dt;
  Gc.compact ();
  let served = match args.workload with Http_live -> Live_engine.engine (Live_engine.pin live) | _ -> engine in
  Replay.resident served;
  let source, srv =
    match args.workload with
    | Http_live -> (Endpoint.Live live, Endpoint.create_live ~config:endpoint_config live)
    | _ -> (Endpoint.Static engine, Endpoint.create ~config:endpoint_config engine)
  in
  let server = start_server srv in
  let batch = ref Inputs.write_groups and attempted = ref 0 and reads = ref 0 in
  let read (q : Inputs.query) =
    incr reads;
    let e = match source with Endpoint.Live l -> Live_engine.engine (Live_engine.pin l) | Endpoint.Static e -> e in
    let answer, handle_s =
      Replay.read ~op:!attempted ~config:endpoint_config ~source ~serve_rows e q.Inputs.text
    in
    check_answer oracle q ~variables:answer.Engine.variables ~rows:answer.Engine.rows;
    match handle_s with
    | None -> ()
    | Some handle_s -> (
        match Replay.span "http.round_trip" (fun () -> Http_client.get_sparql ~port:server.port q.Inputs.text) with
        | (200, _), rt -> Replay.sample "endpoint.transport_ms" ((rt -. handle_s) *. 1000.)
        | (status, _), _ -> fail (Printf.sprintf "read status %d" status))
  in
  let write () =
    let adds, dels = Inputs.batch writes !batch in
    incr batch;
    ignore (Replay.write ~op:!attempted ~dir live ~adds ~dels)
  in
  let t0 = now () in
  let elapsed () = now () -. t0 >= args.seconds in
  let ops =
    match args.workload with
    | Http_live ->
        let round = http_round ~seed:args.seed http_reads in
        let cur = ref round in
        fun () ->
          if !cur = [] && elapsed () then None
          else begin
            if !cur = [] then cur := round;
            let o = List.hd !cur in
            cur := List.tl !cur;
            Some o
          end
    | Star_enum | Complex_page ->
        let next = in_process_stream args oracle engine queries and k = ref 0 in
        let enough () = elapsed () && !reads >= min_samples in
        let enough = match args.workload with Star_enum -> elapsed | _ -> enough in
        fun () ->
          incr k;
          if !k mod (reads_per_write + 1) = 0 then Some `Write
          else Option.map (fun r -> `Read r) (next ~enough)
  in
  Fun.protect
    ~finally:(fun () -> stop_server server)
    (fun () ->
      let rec loop () =
        match ops () with
        | None -> ()
        | Some o ->
            (try match o with `Read q -> read q | `Write -> write () with
            | (Wrong_answer _ | Replay.Mismatch _) as e -> raise e
            | e -> fail (failure_name e));
            incr attempted;
            loop ()
      in
      loop ());
  remove_tree (Filename.dirname dir);
  Replay.write_spans
    (Printf.sprintf "%s/spans-%s-%d.jsonl" work_root (workload_name args.workload) args.seed);
  let med name = median (Replay.sampled name) in
  let ratio hits lookups =
    let l = sum (Replay.sampled lookups) in
    if l = 0. then 0. else sum (Replay.sampled hits) /. l
  in
  List.iter
    (fun (name, unit) ->
      match name with
      | "matcher.probe_cache_hit_ratio" -> metric name unit (ratio "matcher.probe_hits" "matcher.probe_lookups")
      | "engine.lru_hit_ratio" -> metric name unit (ratio "engine.lru_hits" "engine.lru_lookups")
      | "workload.left_out_slow" -> metric name unit (float left_out_slow)
      | _ -> metric name unit (med name))
    per_layer;
  Printf.printf "traced: %d operations (%d reads) in %.1fs, %d spans\n" !attempted !reads (now () -. t0)
    (List.length !Replay.spans);
  !attempted

let () =
  let args = parse_args () in
  corruption := args.corrupt;
  match
    if args.trace then run_traced args
    else match args.workload with Http_live -> run_http args | _ -> run_in_process args
  with
  | attempted -> finish ~args ~attempted
  | exception (Wrong_answer msg | Replay.Mismatch msg) ->
      prerr_endline ("wrong answer: " ^ msg);
      exit 1
