open Cubicle

type t = {
  ctx : Monitor.ctx;
  open_file : string -> create:bool -> int;
  close_file : int -> int;
  pread : fd:int -> buf:int -> len:int -> off:int -> int;
  pwrite : fd:int -> buf:int -> len:int -> off:int -> int;
  file_size : int -> int;
  truncate : fd:int -> size:int -> int;
  fsync : int -> int;
  unlink : string -> int;
  exists : string -> bool;
  rename : old_name:string -> new_name:string -> int;
}

let cubicleos fio =
  {
    ctx = Libos.Fileio.ctx fio;
    open_file = (fun path ~create -> Libos.Fileio.open_file fio path ~create);
    close_file = (fun fd -> Libos.Fileio.close_file fio fd);
    pread = (fun ~fd ~buf ~len ~off -> Libos.Fileio.pread fio ~fd ~buf ~len ~off);
    pwrite = (fun ~fd ~buf ~len ~off -> Libos.Fileio.pwrite fio ~fd ~buf ~len ~off);
    file_size = (fun fd -> Libos.Fileio.file_size fio fd);
    truncate = (fun ~fd ~size -> Libos.Fileio.truncate fio ~fd ~size);
    fsync = (fun fd -> Libos.Fileio.fsync fio fd);
    unlink = (fun path -> Libos.Fileio.unlink fio path);
    exists = (fun path -> Libos.Fileio.exists fio path);
    rename = (fun ~old_name ~new_name -> Libos.Fileio.rename fio ~old_name ~new_name);
  }

(* --- the in-memory host file store ---------------------------------------- *)

type hfile = { mutable data : Bytes.t; mutable size : int }
type op_kind = Meta | Data

type charges = {
  op : 'a. op_kind -> (unit -> 'a) -> 'a;
  on_read : Bytes.t -> pos:int -> len:int -> unit;
  on_write : Bytes.t -> pos:int -> len:int -> unit;
}

let grow f want =
  if Bytes.length f.data < want then begin
    let ndata = Bytes.make (max want (2 * Bytes.length f.data + 4096)) '\000' in
    Bytes.blit f.data 0 ndata 0 f.size;
    f.data <- ndata
  end

let host_store ch ctx =
  let files : (string, hfile) Hashtbl.t = Hashtbl.create 16 in
  let fds : (int, hfile) Hashtbl.t = Hashtbl.create 16 in
  let next_fd = ref 3 in
  let cpu = ctx.Monitor.cpu in
  let new_fd f =
    let fd = !next_fd in
    incr next_fd;
    Hashtbl.replace fds fd f;
    fd
  in
  let with_fd kind fd k =
    ch.op kind (fun () ->
        match Hashtbl.find_opt fds fd with None -> Libos.Sysdefs.ebadf | Some f -> k f)
  in
  let meta f = ch.op Meta f in
  {
    ctx;
    open_file =
      (fun path ~create ->
        meta (fun () ->
            match Hashtbl.find_opt files path with
            | Some f -> new_fd f
            | None ->
                if not create then Libos.Sysdefs.enoent
                else begin
                  let f = { data = Bytes.create 4096; size = 0 } in
                  Hashtbl.replace files path f;
                  new_fd f
                end));
    close_file =
      (fun fd ->
        meta (fun () ->
            if Hashtbl.mem fds fd then (Hashtbl.remove fds fd; 0) else Libos.Sysdefs.ebadf));
    pread =
      (fun ~fd ~buf ~len ~off ->
        with_fd Data fd (fun f ->
            if off >= f.size then 0
            else begin
              let n = min len (f.size - off) in
              ch.on_read f.data ~pos:off ~len:n;
              (* the store copies into the caller's buffer *)
              Hw.Cpu.write_sub cpu buf f.data ~pos:off ~len:n;
              n
            end));
    pwrite =
      (fun ~fd ~buf ~len ~off ->
        with_fd Data fd (fun f ->
            grow f (off + len);
            Hw.Cpu.read_into cpu buf f.data ~pos:off ~len;
            ch.on_write f.data ~pos:off ~len;
            f.size <- max f.size (off + len);
            len));
    file_size = (fun fd -> with_fd Meta fd (fun f -> f.size));
    truncate =
      (fun ~fd ~size ->
        with_fd Meta fd (fun f ->
            grow f size;
            if size < f.size then Bytes.fill f.data size (f.size - size) '\000';
            f.size <- size;
            0));
    fsync = (fun _fd -> meta (fun () -> 0));
    unlink =
      (fun path ->
        meta (fun () ->
            if Hashtbl.mem files path then (Hashtbl.remove files path; 0)
            else Libos.Sysdefs.enoent));
    exists = (fun path -> meta (fun () -> Hashtbl.mem files path));
    rename =
      (fun ~old_name ~new_name ->
        meta (fun () ->
            match Hashtbl.find_opt files old_name with
            | None -> Libos.Sysdefs.enoent
            | Some f ->
                Hashtbl.remove files old_name;
                Hashtbl.replace files new_name f;
                0));
  }

(* --- host Linux model ---------------------------------------------------- *)

let no_copy _ ~pos:_ ~len:_ = ()

let linux ctx =
  let cost = Monitor.cost ctx.Monitor.mon in
  host_store
    {
      op = (fun _ f -> Hw.Cost.charge cost cost.Hw.Cost.model.syscall; f ());
      on_read = no_copy;
      on_write = no_copy;
    }
    ctx
