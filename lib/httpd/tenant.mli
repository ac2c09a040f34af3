(** Multi-tenant serving sets for the key-pressure bench.

    Each tenant is a private FS+WEB cubicle pair behind one shared
    gateway cubicle: [n] live tenants put [2n+1] isolated cubicles on
    the machine, far past the 14 physical MPK tags once [n] grows, so
    round-robin traffic across tenants drives the key multiplexer's
    fault-in/evict path on nearly every request. Tenants spawn and tear
    down at runtime through {!Cubicle.Builder.spawn} and
    {!Cubicle.Monitor.destroy_cubicle}. *)

type t

val boot :
  ?protection:Cubicle.Types.protection -> ?virtualise:bool -> ?mem_bytes:int -> unit -> t
(** Boot a monitor with a gateway cubicle and no tenants. [protection]
    defaults to {!Cubicle.Types.Full}; pass [~protection:Cubicle.Types.None_] for the
    no-isolation baseline the bench diffs responses against.
    [mem_bytes] defaults to 512 MiB — enough for 256 tenants. *)

val mon : t -> Cubicle.Monitor.t
val built : t -> Cubicle.Builder.built
val live : t -> int list
(** Live tenant ids, sorted. *)

val spawn : t -> int -> unit
(** Bring tenant [i]'s FS+WEB pair up. {!Cubicle.Types.Error} if already
    live or if [i] is negative. *)

val components : t -> int -> Cubicle.Builder.component list
(** Tenant [i]'s FS and WEB components. They are built at its first
    spawn (before that: [[]]) and every respawn loads the same ones, so
    closures, interface summaries and code images are built once per
    tenant id. *)

val teardown : t -> int -> unit
(** Destroy tenant [i]'s pair: guard entries dropped, pages scrubbed and
    released, keys and cids recycled. {!Cubicle.Types.Error} if not live. *)

val request : t -> tenant:int -> off:int -> len:int -> string
(** Serve one request through the gateway: full HTTP/1.0 response
    (header + [len] file bytes starting at [off]) as the gateway read it
    back through the tenant's response window. {!Cubicle.Types.Error} if
    the tenant is not live, [off] or [len] is negative, or the response
    would not fit a page. *)

val expected : tenant:int -> off:int -> len:int -> string
(** The response [request] must produce, computed host-side without
    touching simulated memory — the bench's byte-identity oracle. *)

val fs_name : int -> string
val web_name : int -> string
