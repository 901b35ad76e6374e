(* Everything a run feeds the program, made from the run's seed alone:
   the graphs, the query sets and the write stream. Queries are carved
   from the data by [Datagen.Workload] and chosen by the independent
   count of [Oracle], never by anything the engine reports. *)

(* DBPEDIA-like, 10x the default scale of bench/main.ml (0.15): about
   378k triples. *)
let scale = 1.5

(* The graphs and the query sets are the same in every run; the run's
   seed orders the queries and draws the writes. Across graph seeds the
   skew-1.8 graph moved complex-page's median latency by a quarter, and
   across star sets of 50 queries star-enum's p95 moved by a quarter
   too: either would drown the change a run is meant to show. *)
let graph_seed = 1
let query_seed = 1

let graph ~skew =
  Datagen.Scale_free.generate ~seed:graph_seed ~skew (Datagen.Scale_free.dbpedia_like ~scale ())

type query = {
  text : string;  (* what the client sends *)
  ast : Sparql.Ast.t;
  bgp : Oracle.bgp;
  expected : int;  (* independent row count (capped at the LIMIT) *)
  size : int;  (* triple patterns *)
}

let make oracle ?limit ast ~expected =
  let ast = { ast with Sparql.Ast.limit } in
  {
    text = Sparql.Ast.to_string ast;
    ast;
    bgp = Oracle.compile oracle ast;
    expected;
    size = List.length ast.Sparql.Ast.where;
  }

(* Candidate queries of one shape, every size in [sizes] in turn, with
   their independent counts; candidates the counter cannot settle within
   its budget are skipped. *)
let candidates oracle corpus ~seed ~shape ~sizes ~per_size ~cap ~budget =
  List.concat_map
    (fun size ->
      Datagen.Workload.generate ~seed:((seed * 1009) + size) corpus ~shape ~size
        ~count:per_size
      |> List.filter_map (fun ast ->
             match Oracle.count ~cap ~budget oracle (Oracle.compile oracle ast) with
             | n -> Some (ast, n)
             | exception Oracle.Budget -> None))
    sizes

(* Pick one candidate per target, the closest unused one by [key] on a
   log scale. Fixed log-spaced targets give every seed the same spread
   of work, so runs with different seeds do comparable work. *)
let by_targets ~key candidates targets =
  let pool = Array.of_list candidates in
  let used = Array.make (Array.length pool) false in
  List.filter_map
    (fun target ->
      let best = ref (-1) and best_d = ref infinity in
      Array.iteri
        (fun i c ->
          let d = Float.abs (log (key c) -. log target) in
          if (not used.(i)) && d < !best_d then begin
            best := i;
            best_d := d
          end)
        pool;
      if !best < 0 then None
      else begin
        used.(!best) <- true;
        Some pool.(!best)
      end)
    targets

let log_targets ~lo ~hi n =
  List.init n (fun i -> lo *. ((hi /. lo) ** (float i /. float (n - 1))))

let in_range ~lo ~hi = List.filter (fun (_, n) -> n >= lo && n <= hi)

(* star-enum: stars of 10-30 patterns with 1,000-100,000 rows, no LIMIT,
   picked by answer cells (rows x variables): enumeration and decoding
   cost follows cells, so log-spaced cell targets keep each seed's
   spread of per-query work the same. *)
let star_enum_queries oracle corpus ~count =
  let seed = query_seed in
  let cells (ast, n) = float (n * List.length (Sparql.Ast.variables ast)) in
  candidates oracle corpus ~seed ~shape:Datagen.Workload.Star
    ~sizes:[ 10; 15; 20; 25; 30 ] ~per_size:400 ~cap:1_000_000 ~budget:1_000_000
  |> in_range ~lo:1_000 ~hi:100_000
  |> (fun c -> by_targets ~key:cells c (log_targets ~lo:20_000. ~hi:2_000_000. count))
  |> List.map (fun (ast, n) -> make oracle ast ~expected:n)

(* http-live reads: stars of 10-20 patterns with 20-3,000 rows. *)
let http_read_queries oracle corpus ~count =
  candidates oracle corpus ~seed:(query_seed + 7919) ~shape:Datagen.Workload.Star
    ~sizes:[ 10; 12; 14; 16; 18; 20 ] ~per_size:150 ~cap:1_000_000 ~budget:1_000_000
  |> in_range ~lo:20 ~hi:3_000
  |> (fun c -> by_targets ~key:(fun (_, n) -> float n) c (log_targets ~lo:20. ~hi:3_000. count))
  |> List.map (fun (ast, n) -> make oracle ast ~expected:n)

let page = 100

(* complex-page queries the engine cannot finish in about a second
   (lib/core/decompose.ml order, see CHANGES.md): MD5 of the query
   text. They took 1.2 s to more than 3 s each, against 0.31 s for the
   slowest kept query and under 0.1 s for all but four, when the whole
   pool was run once under a 3 s budget on a 2-vCPU host. The list is
   fixed with the pool, so no run decides by its own timing which
   queries it times; a kept query that slows down stays in the sample,
   under the 30 s budget, and fails the operation past it. *)
let complex_page_left_out =
  [
    "87c01e24aec9cc456b4eeb1668156e50"; "7bf7384febdb28ccfce153d83612b5cc";
    "8ebaf52bdebcf9788d5d83f1756f5054"; "3fed34cc3d3dac5041b15daee0ecd06b";
    "62b09b72e2d2f387aa6dfb2ef3781540"; "5a40aabb830160ead05eed08f8683835";
    "73fe80a243ad25727a077d0e4a32a95d"; "2e8ab4328034aeb2587b855e3dab8a89";
    "dc28ba0a19ea9d20f0e15dc7737acbe6"; "8e1b6cffe6a425438a27b26137f45ec1";
    "781f50d059203df05cfe29229b4e89a4";
  ]

(* complex-page: distinct random-walk queries of 10-30 patterns under
   LIMIT 100, sizes interleaved so that every prefix of the stream has
   the same mix. The counter stops at the page size: the expected row
   count is min(100, full answer). Returns the pool and the queries of
   [complex_page_left_out] taken out of it. *)
let complex_page_queries oracle corpus ~count =
  let seen = Hashtbl.create (2 * count) in
  let columns =
    List.init 21 (fun i ->
        candidates oracle corpus ~seed:query_seed ~shape:Datagen.Workload.Complex
          ~sizes:[ 10 + i ] ~per_size:((count / 21) + 1) ~cap:page ~budget:50_000
        |> List.filter_map (fun (ast, n) ->
               let q = make oracle ~limit:page ast ~expected:n in
               if Hashtbl.mem seen q.text then None
               else begin
                 Hashtbl.add seen q.text ();
                 Some q
               end))
  in
  let rec interleave acc cols =
    match List.filter (fun c -> c <> []) cols with
    | [] -> List.rev acc
    | cols -> interleave (List.rev_append (List.map List.hd cols) acc) (List.map List.tl cols)
  in
  List.partition
    (fun q -> not (List.mem (Digest.to_hex (Digest.string q.text)) complex_page_left_out))
    (interleave [] columns)

(* ---- the write stream of http-live --------------------------------- *)

(* A fixed universe of triples that the writes toggle: fresh triples of
   a predicate the data does not have, plus base triples of a data
   predicate no read mentions (the first such predicate by name with
   enough triples). Batch [i] inserts group [i mod groups] and removes
   group [(i + 1) mod groups], so the live data never leaves the base
   plus the universe. The sizes are the benchmark's choice, not taken
   from a published update mix: 10-triple batches over a 200-triple
   universe keep one write at a few milliseconds, well under the reads
   it is interleaved with. *)
type writes = {
  groups : Rdf.Triple.t array array;
  predicates : string list;  (* the fresh one and the unread data one *)
  base_triples : Rdf.Triple.t list;  (* every triple of the unread data predicate *)
}

let write_groups = 20
let fresh_per_group = 8
let base_per_group = 2

let fresh_predicate = "http://example.org/bench/touches"

let writes ~seed triples ~reads =
  let rng = Random.State.make [| query_seed; 31 |] in
  let mentioned = Hashtbl.create 64 in
  List.iter
    (fun q ->
      List.iter
        (fun { Sparql.Ast.predicate; _ } ->
          match predicate with Sparql.Ast.Iri p -> Hashtbl.replace mentioned p () | _ -> ())
        q.ast.Sparql.Ast.where)
    reads;
  (* Base triples per object predicate, in data order. *)
  let by_pred = Hashtbl.create 256 in
  List.iter
    (fun ({ Rdf.Triple.predicate; obj; _ } as tr) ->
      match (predicate, obj) with
      | Rdf.Term.Iri p, Rdf.Term.Iri _ when not (Hashtbl.mem mentioned p) ->
          Hashtbl.replace by_pred p (tr :: Option.value ~default:[] (Hashtbl.find_opt by_pred p))
      | _ -> ())
    triples;
  let need = write_groups * base_per_group in
  let base_predicate, base =
    Hashtbl.fold (fun p l acc -> if List.length l >= need then (p, l) :: acc else acc) by_pred []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> function
    | (p, l) :: _ -> (p, l)
    | [] -> failwith "Inputs.writes: no unread predicate with enough triples"
  in
  let base_triples =
    List.sort_uniq Rdf.Triple.compare
      (List.filter (fun (tr : Rdf.Triple.t) -> tr.Rdf.Triple.predicate = Rdf.Term.Iri base_predicate) triples)
  in
  let base = Array.of_list (List.sort_uniq Rdf.Triple.compare base) in
  if Array.length base < need then failwith "Inputs.writes: too few distinct base triples";
  let entities = Datagen.Scale_free.(dbpedia_like ~scale ()).Datagen.Scale_free.entities in
  let entity () = Rdf.Term.Iri (Datagen.Scale_free.entity_iri (Random.State.int rng entities)) in
  let fresh = Hashtbl.create 1024 in
  let rec fresh_triple () =
    let tr = Rdf.Triple.make (entity ()) (Rdf.Term.Iri fresh_predicate) (entity ()) in
    if Hashtbl.mem fresh tr then fresh_triple () else (Hashtbl.add fresh tr (); tr)
  in
  let picks = Array.init need (fun i -> i) in
  for i = need - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = picks.(i) in
    picks.(i) <- picks.(j);
    picks.(j) <- t
  done;
  let stride = Array.length base / need in
  let groups =
    Array.init write_groups (fun g ->
        Array.append
          (Array.init fresh_per_group (fun _ -> fresh_triple ()))
          (Array.init base_per_group (fun k -> base.(stride * picks.((g * base_per_group) + k)))))
  in
  (* The universe is the same in every run; the seed orders its groups. *)
  let order = Random.State.make [| seed; 37 |] in
  for i = write_groups - 1 downto 1 do
    let j = Random.State.int order (i + 1) in
    let t = groups.(i) in
    groups.(i) <- groups.(j);
    groups.(j) <- t
  done;
  { groups; predicates = [ fresh_predicate; base_predicate ]; base_triples }

let batch w i =
  let n = Array.length w.groups in
  (Array.to_list w.groups.(i mod n), Array.to_list w.groups.((i + 1) mod n))

(* The benchmark's own model of the live data on the write predicates:
   every base triple of the unread predicate, plus every insertion,
   minus every deletion, in batch order (deletions first, as
   [Live_engine.update] applies them). It models the data, not how a
   delta stores it. *)
module Model = struct
  type t = { base : (Rdf.Triple.t, unit) Hashtbl.t; live : (Rdf.Triple.t, unit) Hashtbl.t }

  let create w =
    let base = Hashtbl.create 1024 in
    List.iter (fun tr -> Hashtbl.replace base tr ()) w.base_triples;
    { base; live = Hashtbl.copy base }

  let apply m ~adds ~dels =
    List.iter (Hashtbl.remove m.live) dels;
    List.iter (fun tr -> Hashtbl.replace m.live tr ()) adds

  let live m = Hashtbl.fold (fun tr () acc -> tr :: acc) m.live []

  (* The fewest insertions and deletions any delta over the base must
     hold to give the live data. *)
  let net m =
    let missing a b = Hashtbl.fold (fun tr () n -> if Hashtbl.mem b tr then n else n + 1) a 0 in
    (missing m.live m.base, missing m.base m.live)
end
