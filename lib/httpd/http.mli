(** HTTP/1.0 request parsing and response formatting (host-side string
    manipulation; the server component moves the actual bytes through
    simulated memory). *)

type request = { meth : string; path : string; keep_alive : bool }

val parse_request : string -> request option
(** Accepts "GET|HEAD /path HTTP/1.x\r\n..." plus headers; [None] on
    malformed input. [keep_alive] reflects the Connection header
    (HTTP/1.0 semantics: close unless keep-alive is requested). *)

val header_end : string -> int option
(** The offset just past the first blank line ("\r\n\r\n") — where a
    header block ends and the body begins; [None] if the block is not
    complete yet. Allocation-free. *)

val find_header : string -> string -> string option
(** [find_header block name]: the trimmed value of the first header
    named [name] (ASCII case-insensitive) in [block]. *)

val response_header :
  ?content_type:string -> ?keep_alive:bool -> status:int -> content_length:int -> unit -> string

val mime_type : string -> string
(** By file extension: text/html, text/plain, text/css,
    application/javascript, image/png, application/octet-stream. *)
