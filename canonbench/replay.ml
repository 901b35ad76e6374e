(* The traced run: every operation is replayed layer by layer through the
   engine's public modules, in the order [Amber.Engine.query] runs them,
   with a span around each call. Spans are kept in memory and written
   out when the run ends; per-layer metrics are read off them. *)

open Amber

let now = Unix.gettimeofday

(* ---- spans ---------------------------------------------------------- *)

type span = { id : int; parent : int; op : int; name : string; start : float; stop : float }

let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0
let current_op = ref 0

(* Run [f] inside a span; returns its value and duration in seconds. *)
let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let start = now () in
  let close () =
    let stop = now () in
    open_spans := List.tl !open_spans;
    spans := { id; parent; op = !current_op; name; start; stop } :: !spans;
    stop -. start
  in
  match f () with
  | v -> (v, close ())
  | exception e ->
      ignore (close ());
      raise e

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f}\n" s.id
        s.parent s.op s.name s.start s.stop)
    (List.rev !spans);
  close_out oc

(* ---- per-layer samples ----------------------------------------------- *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let sample name v =
  Hashtbl.replace samples name (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let sampled name = Option.value ~default:[] (Hashtbl.find_opt samples name)

(* ---- set-up layers --------------------------------------------------- *)

(* The offline stage of [Engine.build], one index family at a time. *)
let build_layers triples =
  let db, dt = span "database.of_triples" (fun () -> Database.of_triples triples) in
  sample "database.of_triples_s" dt;
  let attribute, dt = span "attribute_index.build" (fun () -> Attribute_index.build db) in
  sample "attribute_index.build_s" dt;
  let synopsis, dt = span "synopsis_index.build" (fun () -> Synopsis_index.build db) in
  sample "synopsis_index.build_s" dt;
  let (_ : Neighbourhood_index.t), dt =
    span "neighbourhood_index.build" (fun () -> Neighbourhood_index.build db)
  in
  sample "neighbourhood_index.build_s" dt;
  let (_ : Stats.t), dt = span "stats.compute" (fun () -> Stats.compute db attribute synopsis) in
  sample "stats.compute_s" dt

let mb bytes = float bytes /. 1e6

let resident e =
  List.iter
    (fun (index, bytes) -> sample ("resident." ^ index ^ "_mb") (mb bytes))
    (Engine.resident_bytes e);
  let p = Engine.posting_stats e in
  sample "posting.lists_raw" (float p.Mgraph.Posting.raw_lists);
  sample "posting.lists_ef" (float p.Mgraph.Posting.ef_lists);
  sample "posting.lists_blocked" (float p.Mgraph.Posting.blocked_lists)

(* ---- one query, layer by layer ---------------------------------------- *)

(* The engine-scoped LRUs the replay's matcher contexts share, one set
   per engine, as [Engine.t] keeps its own. *)
type engine_state = { engine : Engine.t; shared : Matcher.shared; lits : Literal_bindings.t }

let states : (Engine.t * engine_state) list ref = ref []

let state_of e =
  match List.assq_opt e !states with
  | Some s -> s
  | None ->
      let s =
        { engine = e; shared = Matcher.make_shared (); lits = Literal_bindings.create (Engine.db e) }
      in
      (* Live epochs come and go: keep the latest few. *)
      states := (e, s) :: List.filteri (fun i _ -> i < 3) !states;
      s

let lru_counters e =
  Engine.sync_index_metrics e;
  let v name = Obs.Metrics.counter_value (Obs.Metrics.counter Obs.Metrics.default name) in
  ( v "amber_engine_attribute_cache_hits_total" + v "amber_engine_synopsis_cache_hits_total",
    v "amber_engine_attribute_cache_misses_total" + v "amber_engine_synopsis_cache_misses_total" )

exception Mismatch of string

let sorted_rows rows =
  List.sort compare
    (List.map (List.map (function Some t -> Rdf.Term.to_string t | None -> "")) rows)

(* Mirror of the engine's pipeline: rewrite, query graph, plan, screen,
   seed and search per component, then enumerate/project. The reattach
   of rewrite-forced bindings is done but not timed as a stage: in the
   engine it runs after the enumerate clock stops, so its cost shows in
   [engine.unattributed_ms]. Returns the answer. *)
let pipeline st (ast : Sparql.Ast.t) =
  let e = st.engine in
  let db = Engine.db e
  and attribute = Engine.attribute_index e
  and synopsis = Engine.synopsis_index e
  and neighbourhood = Engine.neighbourhood_index e in
  let model = Engine.statistics e in
  let attributed = ref 0. in
  let stage name f =
    let v, dt = span name f in
    sample (name ^ "_ms") (dt *. 1000.);
    attributed := !attributed +. dt;
    v
  in
  let r =
    stage "rewrite.apply" (fun () ->
        Rewrite.apply ~open_objects:false ~db ~attribute ~stats:(lazy model) ast)
  in
  sample "rewrite.steps" (float (List.length r.Rewrite.steps));
  let rast = r.Rewrite.ast in
  let selected = Sparql.Ast.selected_variables ast in
  let empty = { Engine.variables = selected; rows = []; truncated = false } in
  let answer =
    match stage "query_graph.build" (fun () -> Query_graph.build ~open_objects:false db rast) with
    | Query_graph.Unsatisfiable _ -> empty
    | Query_graph.Query q -> (
        let plan =
          stage "decompose.plan" (fun () ->
              Decompose.plan
                ~strategy:(Decompose.Estimate (fun u -> Stats.estimate_vertex model q u))
                q)
        in
        let items = stage "analysis.screen" (fun () -> Analysis.screen db ~attribute ~synopsis q rast) in
        if Analysis.unsat_proof (Analysis.report_of_items items) <> None then empty
        else
          let limit = rast.Sparql.Ast.limit in
          let cap =
            if rast.Sparql.Ast.distinct || q.Query_graph.opens <> [] || rast.Sparql.Ast.order_by <> []
            then None
            else Option.map (fun l -> l + Option.value ~default:0 rast.Sparql.Ast.offset) limit
          in
          let ctx =
            Matcher.make_ctx ~probe_cache:(Probe_cache.create ()) ~shared:st.shared
              ~plan:Stats.Adaptive ~model ~db ~attribute ~synopsis ~neighbourhood
              ~deadline:Deadline.never ~stats:(Matcher.fresh_stats ()) ()
          in
          let seed_ms = ref 0. and search_ms = ref 0. in
          let solutions =
            Array.map
              (fun comp ->
                let seeds, dt = span "matcher.seed" (fun () -> Matcher.initial_candidates ctx q comp) in
                seed_ms := !seed_ms +. dt;
                let sols = ref [] and embeddings = ref 0 in
                let (), dt =
                  span "matcher.search" (fun () ->
                      Matcher.solve_component_seeded ctx q plan comp ~seeds ~emit:(fun sol ->
                          sols := sol :: !sols;
                          embeddings := !embeddings + Matcher.count_embeddings sol;
                          match cap with Some l when !embeddings >= l -> `Stop | _ -> `Continue))
                in
                search_ms := !search_ms +. dt;
                List.rev !sols)
              plan.Decompose.components
          in
          sample "matcher.seed_ms" (!seed_ms *. 1000.);
          sample "matcher.search_ms" (!search_ms *. 1000.);
          attributed := !attributed +. !seed_ms +. !search_ms;
          if Array.exists (fun s -> s = []) solutions then empty
          else begin
            let ((rows, truncated), dt), gc =
              Obs.Resource.gc_delta (fun () ->
                  span "embedding.rows" (fun () ->
                      let slots = Embedding.slots q in
                      let cols = List.map slots.Embedding.of_var selected in
                      let seen = Hashtbl.create 64 in
                      let out = ref [] and n = ref 0 in
                      let exception Full in
                      (try
                         Seq.iter
                           (fun row ->
                             let p = List.map (Option.map (fun i -> row.(i))) cols in
                             if not (rast.Sparql.Ast.distinct && Hashtbl.mem seen p) then begin
                               if rast.Sparql.Ast.distinct then Hashtbl.add seen p ();
                               out := p :: !out;
                               incr n;
                               match cap with Some l when !n >= l -> raise Full | _ -> ()
                             end)
                           (Embedding.rows ~db ~q ~lits:st.lits ~solutions)
                       with Full -> ());
                      (List.rev !out, cap <> None && !n >= Option.get cap)))
            in
            attributed := !attributed +. dt;
            sample "embedding.rows_ms" (dt *. 1000.);
            sample "embedding.alloc_mb" (Obs.Resource.allocated_bytes gc /. 1e6);
            if rows <> [] then sample "embedding.ns_per_row" (dt *. 1e9 /. float (List.length rows));
            { Engine.variables = selected; rows; truncated }
          end)
  in
  let forced = List.map (fun v -> List.assoc_opt v r.Rewrite.bindings) selected in
  let patch row = List.map2 (fun f cell -> match cell with Some _ -> cell | None -> f) forced row in
  ({ answer with Engine.rows = List.map patch answer.Engine.rows }, !attributed)

(* Replay one read: parse, the pipeline, serialization and the
   endpoint's request handler, plus [Engine.query_with_stats] itself —
   in alternating order, so neither side always runs on warm caches.
   The replayed rows must equal the engine's. Serialization and the
   handler are replayed only for answers of at most [serve_rows] rows.
   Returns the engine's answer and, when it was served, the handler's
   time. *)
let read ~op ~config ~source ~serve_rows e (text : string) =
  current_op := op;
  let st = state_of e in
  let ast, dt = span "parser.parse" (fun () -> Sparql.Parser.parse text) in
  sample "parser.parse_ms" (dt *. 1000.);
  let engine_run () =
    let h0, m0 = lru_counters e in
    let (answer, stats), dt = span "engine.query" (fun () -> Engine.query_with_stats e ast) in
    let h1, m1 = lru_counters e in
    sample "engine.lru_hits" (float (h1 - h0));
    sample "engine.lru_lookups" (float (h1 - h0 + m1 - m0));
    sample "matcher.candidates_scanned" (float stats.Matcher.candidates_scanned);
    sample "matcher.index_probes" (float stats.Matcher.index_probes);
    sample "matcher.probe_hits" (float stats.Matcher.probe_cache_hits);
    sample "matcher.probe_lookups"
      (float (stats.Matcher.probe_cache_hits + stats.Matcher.probe_cache_misses));
    (answer, dt)
  in
  let (answer, engine_s), (replayed, attributed) =
    if op land 1 = 0 then
      let a = engine_run () in
      (a, pipeline st ast)
    else
      let r = pipeline st ast in
      (engine_run (), r)
  in
  sample "engine.query_ms" (engine_s *. 1000.);
  sample "engine.unattributed_ms" ((engine_s -. attributed) *. 1000.);
  if sorted_rows replayed.Engine.rows <> sorted_rows answer.Engine.rows then
    raise
      (Mismatch
         (Printf.sprintf "replayed pipeline gave %d rows, Engine.query %d"
            (List.length replayed.Engine.rows) (List.length answer.Engine.rows)));
  if List.length answer.Engine.rows > serve_rows then (answer, None)
  else
  let json, dt = span "results.to_json" (fun () -> Results.to_json answer) in
  sample "results.to_json_ms" (dt *. 1000.);
  if answer.Engine.rows <> [] then
    sample "results.bytes_per_row" (float (String.length json) /. float (List.length answer.Engine.rows));
  let target = "/sparql?query=" ^ Http_client.percent_encode text in
  let (status, _, _), dt =
    span "endpoint.handle_request" (fun () ->
        Endpoint.handle_request config source ~meth:"GET" ~target
          ~headers:[ ("Accept", "application/sparql-results+json") ]
          ~body:"")
  in
  sample "endpoint.handle_request_ms" (dt *. 1000.);
  if status <> 200 then raise (Mismatch (Printf.sprintf "handle_request answered %d" status));
  (answer, Some dt)

(* Replay one write batch straight into the live engine. *)
let write ~op ~dir live ~adds ~dels =
  current_op := op;
  let ep, dt = span "live_engine.update" (fun () -> Live_engine.update live ~adds ~dels) in
  sample "live_engine.update_ms" (dt *. 1000.);
  sample "live_engine.manifest_bytes"
    (float (Unix.stat (Filename.concat dir "live.manifest")).Unix.st_size);
  sample "delta.triples" (float (Delta.size (Live_engine.delta ep)));
  ep
