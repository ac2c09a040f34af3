type request = { meth : string; path : string; keep_alive : bool }

(* Index of the first occurrence of [needle] in [s], without
   allocating. With [~fold], [s] is lowercased (ASCII) as it is
   compared, and [needle] must already be lowercase. *)
let find ?(fold = false) s needle =
  let n = String.length needle and h = String.length s in
  let rec matches i j =
    j = n
    ||
    let c = String.unsafe_get s (i + j) in
    (if fold then Char.lowercase_ascii c else c) = String.unsafe_get needle j
    && matches i (j + 1)
  in
  let rec go i = if i > h - n then None else if matches i 0 then Some i else go (i + 1) in
  go 0

let header_end raw = Option.map (fun i -> i + 4) (find raw "\r\n\r\n")

let find_header raw name =
  let needle = String.lowercase_ascii name ^ ":" in
  match find ~fold:true raw needle with
  | None -> None
  | Some i ->
      let vstart = i + String.length needle in
      let vend =
        match String.index_from_opt raw vstart '\r' with
        | Some e -> e
        | None -> String.length raw
      in
      Some (String.trim (String.sub raw vstart (vend - vstart)))

let parse_request raw =
  match String.index_opt raw '\r' with
  | None -> None
  | Some eol -> (
      let line = String.sub raw 0 eol in
      match String.split_on_char ' ' line with
      | [ meth; path; version ]
        when (meth = "GET" || meth = "HEAD")
             && String.length path > 0
             && path.[0] = '/'
             && (version = "HTTP/1.0" || version = "HTTP/1.1") ->
          let keep_alive =
            match find_header raw "connection" with
            | Some v -> String.lowercase_ascii v = "keep-alive"
            | None -> version = "HTTP/1.1" (* 1.1 defaults to persistent *)
          in
          Some { meth; path; keep_alive }
      | _ -> None)

let status_line = function
  | 200 -> "200 OK"
  | 400 -> "400 Bad Request"
  | 404 -> "404 Not Found"
  | 405 -> "405 Method Not Allowed"
  | 500 -> "500 Internal Server Error"
  | code -> Printf.sprintf "%d Unknown" code

let mime_type path =
  let ext =
    match String.rindex_opt path '.' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> ""
  in
  match String.lowercase_ascii ext with
  | "html" | "htm" -> "text/html"
  | "txt" -> "text/plain"
  | "css" -> "text/css"
  | "js" -> "application/javascript"
  | "png" -> "image/png"
  | "json" -> "application/json"
  | _ -> "application/octet-stream"

let response_header ?(content_type = "application/octet-stream") ?(keep_alive = false)
    ~status ~content_length () =
  Printf.sprintf
    "HTTP/1.0 %s\r\nServer: cubicle-httpd\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: %s\r\n\r\n"
    (status_line status) content_type content_length
    (if keep_alive then "keep-alive" else "close")
