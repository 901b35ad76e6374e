(* The benchmark's own copy of the data, independent of the engine: an
   interned triple set with per-term adjacency. It answers two
   questions — is this instantiated pattern a triple of the data, and
   how many solutions does a basic graph pattern have — by plain
   backtracking over its own arrays, so no engine index, plan or cache
   is trusted to check the engine. *)

let id_bits = 25
let pred_bits = 12
let id_mask = (1 lsl id_bits) - 1

type t = {
  ids : (Rdf.Term.t, int) Hashtbl.t;
  preds : (string, int) Hashtbl.t;
  triples : int array;  (* sorted packed (s, p, o) *)
  out_adj : int array array;  (* per term: sorted packed (p, o) *)
  in_adj : int array array;  (* per term: sorted packed (p, s) *)
  by_pred : int array array;  (* per predicate: packed (s, o) *)
}

let pack_pair p x = (p lsl id_bits) lor x
let pack_triple s p o = (s lsl (id_bits + pred_bits)) lor pack_pair p o

let intern tbl key =
  match Hashtbl.find_opt tbl key with
  | Some i -> i
  | None ->
      let i = Hashtbl.length tbl in
      Hashtbl.add tbl key i;
      i

let of_triples triples =
  let ids = Hashtbl.create 400_000 and preds = Hashtbl.create 512 in
  let coded =
    Array.of_list
      (List.map
         (fun { Rdf.Triple.subject; predicate; obj } ->
           let p =
             match predicate with
             | Rdf.Term.Iri p -> intern preds p
             | _ -> invalid_arg "Oracle.of_triples: non-IRI predicate"
           in
           (intern ids subject, p, intern ids obj))
         triples)
  in
  let n = Hashtbl.length ids in
  if n > id_mask || Hashtbl.length preds >= 1 lsl pred_bits then
    invalid_arg "Oracle.of_triples: too many terms for the packed layout";
  (* An RDF graph is a set: generated data may repeat a triple. *)
  let triples = Array.map (fun (s, p, o) -> pack_triple s p o) coded in
  Array.sort compare triples;
  let triples =
    Array.of_list
      (List.rev
         (Array.fold_left
            (fun acc x -> match acc with y :: _ when y = x -> acc | _ -> x :: acc)
            [] triples))
  in
  let unpack x = (x lsr (id_bits + pred_bits), (x lsr id_bits) land ((1 lsl pred_bits) - 1), x land id_mask) in
  let group key_of value_of count =
    let buckets = Array.make count [] in
    Array.iter (fun x -> let tr = unpack x in let k = key_of tr in buckets.(k) <- value_of tr :: buckets.(k)) triples;
    Array.map
      (fun l ->
        let a = Array.of_list l in
        Array.sort compare a;
        a)
      buckets
  in
  {
    ids;
    preds;
    triples;
    out_adj = group (fun (s, _, _) -> s) (fun (_, p, o) -> pack_pair p o) n;
    in_adj = group (fun (_, _, o) -> o) (fun (s, p, _) -> pack_pair p s) n;
    by_pred =
      group (fun (_, p, _) -> p) (fun (s, _, o) -> pack_pair s o) (Hashtbl.length preds);
  }

let term_id t term = Hashtbl.find_opt t.ids term

(* First index in the sorted [a] whose element is >= [x]. *)
let lower_bound a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let mem_sorted a x =
  let i = lower_bound a x in
  i < Array.length a && a.(i) = x

let mem t s p o = mem_sorted t.triples (pack_triple s p o)

(* The slice of a per-term adjacency holding predicate [p]. *)
let pred_range adj p =
  let lo = lower_bound adj (pack_pair p 0) in
  (lo, lower_bound adj (pack_pair (p + 1) 0))

(* ---- compiled basic graph patterns -------------------------------- *)

(* A pattern position: a constant term id ([-1] when the constant is not
   in the data, which empties the answer) or a variable slot. *)
type pos = Const of int | Var of int
type pattern = { s : pos; p : int; o : pos }

type bgp = {
  vars : string array;  (* slot -> variable name, first-occurrence order *)
  patterns : pattern array;
  satisfiable : bool;  (* every constant and predicate occurs in the data *)
}

let compile t (ast : Sparql.Ast.t) =
  let vars = Sparql.Ast.variables ast in
  let slot v =
    let rec find i = function
      | [] -> invalid_arg ("Oracle.compile: unknown variable " ^ v)
      | x :: rest -> if String.equal x v then i else find (i + 1) rest
    in
    find 0 vars
  in
  let ok = ref true in
  let pos = function
    | Sparql.Ast.Var v -> Var (slot v)
    | Sparql.Ast.Iri i -> (
        match term_id t (Rdf.Term.Iri i) with
        | Some id -> Const id
        | None -> ok := false; Const (-1))
    | Sparql.Ast.Lit l -> (
        match term_id t (Rdf.Term.Literal l) with
        | Some id -> Const id
        | None -> ok := false; Const (-1))
  in
  let patterns =
    List.map
      (fun { Sparql.Ast.subject; predicate; obj } ->
        let p =
          match predicate with
          | Sparql.Ast.Iri i -> (
              match Hashtbl.find_opt t.preds i with
              | Some p -> p
              | None -> ok := false; -1)
          | _ -> invalid_arg "Oracle.compile: variable or literal predicate"
        in
        { s = pos subject; p; o = pos obj })
      ast.Sparql.Ast.where
  in
  { vars = Array.of_list vars; patterns = Array.of_list patterns; satisfiable = !ok }

(* ---- independent solution counter --------------------------------- *)

exception Budget

(* Products saturate here: counts are only compared against caps far
   below it. *)
let huge = 1 lsl 55
let mul a b = if a = 0 || b = 0 then 0 else if a >= huge / b then huge else a * b
let add a b = min huge (a + b)

(* Number of solutions of [bgp] (SPARQL basic-graph-pattern semantics,
   variables bind any term), stopping once [cap] is reached. Patterns
   whose only unbound variable occurs nowhere else in the remaining
   patterns contribute a factor instead of a loop, so stars count in
   one pass over the centre's neighbours. [budget] bounds the join
   steps; exceeding it raises [Budget]. *)
let count ?(cap = huge) ?(budget = 5_000_000) t bgp =
  if not bgp.satisfiable then 0
  else begin
    let env = Array.make (Array.length bgp.vars) (-1) in
    let steps = ref 0 in
    let tick () =
      incr steps;
      if !steps > budget then raise Budget
    in
    let value = function Const c -> c | Var v -> env.(v) in
    let unbound = function Const _ -> None | Var v -> if env.(v) < 0 then Some v else None in
    (* Matches of one pattern under [env]; [f s o] per match, in order. *)
    let iter_matches pt f =
      let s = value pt.s and o = value pt.o in
      if s >= 0 && o >= 0 then (if mem t s pt.p o then f s o)
      else if s >= 0 then begin
        let adj = t.out_adj.(s) in
        let lo, hi = pred_range adj pt.p in
        for i = lo to hi - 1 do
          f s (adj.(i) land id_mask)
        done
      end
      else if o >= 0 then begin
        let adj = t.in_adj.(o) in
        let lo, hi = pred_range adj pt.p in
        for i = lo to hi - 1 do
          f (adj.(i) land id_mask) o
        done
      end
      else
        Array.iter (fun so -> f (so lsr id_bits) (so land id_mask)) t.by_pred.(pt.p)
    in
    let cost pt =
      let s = value pt.s and o = value pt.o in
      if s >= 0 && o >= 0 then 0
      else if s >= 0 then let lo, hi = pred_range t.out_adj.(s) pt.p in hi - lo
      else if o >= 0 then let lo, hi = pred_range t.in_adj.(o) pt.p in hi - lo
      else Array.length t.by_pred.(pt.p)
    in
    (* Matches of [pt] consistent with [env] when both positions hold the
       same unbound variable. *)
    let matches_count pt =
      let n = ref 0 in
      let same_var = match (pt.s, pt.o) with Var a, Var b -> a = b | _ -> false in
      iter_matches pt (fun s o -> if (not same_var) || s = o then incr n);
      !n
    in
    let occurs v pt = pt.s = Var v || pt.o = Var v in
    let rec go remaining =
      tick ();
      match remaining with
      | [] -> 1
      | _ ->
          (* A leaf: exactly one unbound variable, shared with no other
             remaining pattern — it multiplies the count. *)
          let is_leaf pt =
            match (unbound pt.s, unbound pt.o) with
            | Some v, None | None, Some v ->
                List.for_all (fun q -> q == pt || not (occurs v q)) remaining
            | Some a, Some b when a = b ->
                List.for_all (fun q -> q == pt || not (occurs a q)) remaining
            | None, None -> true
            | Some _, Some _ -> false
          in
          let leaves, rest = List.partition is_leaf remaining in
          let factor =
            List.fold_left (fun acc pt -> if acc = 0 then 0 else mul acc (matches_count pt)) 1 leaves
          in
          if factor = 0 then 0
          else if rest = [] then factor
          else begin
            let best =
              List.fold_left
                (fun b pt -> match b with Some (_, c) when c <= cost pt -> b | _ -> Some (pt, cost pt))
                None rest
            in
            let pt = match best with Some (pt, _) -> pt | None -> assert false in
            let others = List.filter (fun q -> q != pt) rest in
            let total = ref 0 in
            let exception Enough in
            (try
               iter_matches pt (fun s o ->
                   let bind pos v =
                     match pos with
                     | Var x when env.(x) < 0 -> env.(x) <- v; Some x
                     | Var x -> if env.(x) = v then None else raise_notrace Exit
                     | Const _ -> None
                   in
                   match bind pt.s s with
                   | exception Exit -> ()
                   | bs -> (
                       match bind pt.o o with
                       | exception Exit -> Option.iter (fun x -> env.(x) <- -1) bs
                       | bo ->
                           total := add !total (mul factor (go others));
                           Option.iter (fun x -> env.(x) <- -1) bo;
                           Option.iter (fun x -> env.(x) <- -1) bs;
                           if !total >= cap then raise_notrace Enough))
             with Enough -> ());
            !total
          end
    in
    min cap (go (Array.to_list bgp.patterns))
  end

(* ---- answer checks ----------------------------------------------- *)

(* Term ids of one engine row, or [None] when a cell is unbound or names
   a term the data does not hold. *)
let row_ids t row =
  let a = Array.of_list row in
  let out = Array.make (Array.length a) (-1) in
  let ok = ref true in
  Array.iteri
    (fun i cell ->
      match cell with
      | Some term -> (match term_id t term with Some id -> out.(i) <- id | None -> ok := false)
      | None -> ok := false)
    a;
  if !ok then Some out else None

type verdict = Ok | Wrong of string

(* Every row is an embedding of [bgp] (each instantiated pattern is a
   triple of the data), no row repeats, and the row count is [expected].
   [variables] are the answer's columns; every WHERE variable must be
   projected, as in the benchmark's SELECT * queries. *)
let check_rows t bgp ~variables ~rows ~expected =
  let columns =
    Array.map
      (fun v ->
        let rec find i = function
          | [] -> -1
          | x :: rest -> if String.equal x v then i else find (i + 1) rest
        in
        find 0 variables)
      bgp.vars
  in
  if Array.exists (fun c -> c < 0) columns then Wrong "a WHERE variable is not projected"
  else begin
    let n = List.length rows in
    if n <> expected then Wrong (Printf.sprintf "%d rows, independent count %d" n expected)
    else begin
      let coded = Array.make n [||] in
      let bad = ref None in
      (* Rows of one answer share most of their (pattern, subject, object)
         instances: look each one up once. *)
      let seen = Hashtbl.create 1024 in
      let holds i s p o =
        let key = (i, pack_triple s p o) in
        match Hashtbl.find_opt seen key with
        | Some b -> b
        | None ->
            let b = mem t s p o in
            Hashtbl.add seen key b;
            b
      in
      List.iteri
        (fun i row ->
          if !bad = None then
            match row_ids t row with
            | None -> bad := Some (Printf.sprintf "row %d has an unbound or unknown term" i)
            | Some ids ->
                coded.(i) <- ids;
                let v = function Const c -> c | Var x -> ids.(columns.(x)) in
                Array.iteri
                  (fun k pt ->
                    if !bad = None && not (holds k (v pt.s) pt.p (v pt.o)) then
                      bad := Some (Printf.sprintf "row %d is not an embedding" i))
                  bgp.patterns)
        rows;
      match !bad with
      | Some msg -> Wrong msg
      | None ->
          let compare_ids (a : int array) (b : int array) =
            let rec go i =
              if i = Array.length a then 0
              else match Int.compare a.(i) b.(i) with 0 -> go (i + 1) | c -> c
            in
            go 0
          in
          Array.sort compare_ids coded;
          let dup = ref false in
          for i = 1 to n - 1 do
            if coded.(i) = coded.(i - 1) then dup := true
          done;
          if !dup then Wrong "a row repeats" else Ok
    end
  end

(* Order-independent digest of an answer's rows — how later rounds
   compare an answer with the first, fully checked one. *)
let digest rows =
  List.fold_left
    (fun acc row ->
      let h =
        List.fold_left
          (fun h cell ->
            (h * 1_000_003) + match cell with Some term -> Hashtbl.hash term | None -> -3)
          17 row
      in
      acc + (h land 0xFFFF_FFFF_FFFF))
    0 rows
