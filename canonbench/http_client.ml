(* A one-request-per-connection HTTP/1.1 client over loopback, enough for
   the endpoint's [Connection: close] responses. *)

let percent_encode s =
  let b = Buffer.create (String.length s * 3) in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~' -> Buffer.add_char b c
      | c -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents b

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let read_all fd =
  let b = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go () =
    let n = Unix.read fd chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes b chunk 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents b

exception Bad_response of string

(* [(status, body)] of one exchange. *)
let request ~port ~meth ~target ?(content_type = "application/x-www-form-urlencoded")
    ?(body = "") () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (* A server that stops answering fails the request instead of hanging
     the run. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 40.;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 40.;
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let head =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nAccept: application/sparql-results+json\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
          meth target content_type (String.length body)
      in
      write_all fd (head ^ body) 0;
      let raw = read_all fd in
      let header_end =
        let rec find i =
          if i + 3 >= String.length raw then raise (Bad_response "no header terminator")
          else if raw.[i] = '\r' && String.sub raw i 4 = "\r\n\r\n" then i + 4
          else find (i + 1)
        in
        find 0
      in
      let status =
        match String.split_on_char ' ' (String.sub raw 0 (min 64 header_end)) with
        | _ :: code :: _ -> (
            match int_of_string_opt code with
            | Some c -> c
            | None -> raise (Bad_response "bad status line"))
        | _ -> raise (Bad_response "bad status line")
      in
      (status, String.sub raw header_end (String.length raw - header_end)))

let get_sparql ~port text =
  request ~port ~meth:"GET" ~target:("/sparql?query=" ^ percent_encode text) ()

let post_update ~port ~adds ~dels =
  let nt l = String.concat "" (List.map (fun tr -> Rdf.Triple.to_string tr ^ "\n") l) in
  let body = "add=" ^ percent_encode (nt adds) ^ "&remove=" ^ percent_encode (nt dels) in
  request ~port ~meth:"POST" ~target:"/update" ~body ()
