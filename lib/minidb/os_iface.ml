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

(* --- host Linux model ---------------------------------------------------- *)

type lfile = { mutable data : Bytes.t; mutable size : int }

let charge_syscall (ctx : Monitor.ctx) =
  Hw.Cost.charge (Monitor.cost ctx.mon) (Monitor.cost ctx.mon).model.syscall

let grow f want =
  if Bytes.length f.data < want then begin
    let ndata = Bytes.make (max want (2 * Bytes.length f.data + 4096)) '\000' in
    Bytes.blit f.data 0 ndata 0 f.size;
    f.data <- ndata
  end

let linux ctx =
  let files : (string, lfile) Hashtbl.t = Hashtbl.create 16 in
  let fds : (int, lfile) Hashtbl.t = Hashtbl.create 16 in
  let next_fd = ref 3 in
  let cpu = ctx.Monitor.cpu in
  {
    ctx;
    open_file =
      (fun path ~create ->
        charge_syscall ctx;
        match Hashtbl.find_opt files path with
        | Some f ->
            let fd = !next_fd in
            incr next_fd;
            Hashtbl.replace fds fd f;
            fd
        | None ->
            if not create then Libos.Sysdefs.enoent
            else begin
              let f = { data = Bytes.create 4096; size = 0 } in
              Hashtbl.replace files path f;
              let fd = !next_fd in
              incr next_fd;
              Hashtbl.replace fds fd f;
              fd
            end);
    close_file =
      (fun fd ->
        charge_syscall ctx;
        if Hashtbl.mem fds fd then (Hashtbl.remove fds fd; 0) else Libos.Sysdefs.ebadf);
    pread =
      (fun ~fd ~buf ~len ~off ->
        charge_syscall ctx;
        match Hashtbl.find_opt fds fd with
        | None -> Libos.Sysdefs.ebadf
        | Some f ->
            if off >= f.size then 0
            else begin
              let n = min len (f.size - off) in
              (* kernel copies into the user buffer *)
              Hw.Cpu.write_sub cpu buf f.data ~pos:off ~len:n;
              n
            end);
    pwrite =
      (fun ~fd ~buf ~len ~off ->
        charge_syscall ctx;
        match Hashtbl.find_opt fds fd with
        | None -> Libos.Sysdefs.ebadf
        | Some f ->
            grow f (off + len);
            Hw.Cpu.read_into cpu buf f.data ~pos:off ~len;
            f.size <- max f.size (off + len);
            len);
    file_size =
      (fun fd ->
        charge_syscall ctx;
        match Hashtbl.find_opt fds fd with
        | None -> Libos.Sysdefs.ebadf
        | Some f -> f.size);
    truncate =
      (fun ~fd ~size ->
        charge_syscall ctx;
        match Hashtbl.find_opt fds fd with
        | None -> Libos.Sysdefs.ebadf
        | Some f ->
            grow f size;
            if size < f.size then Bytes.fill f.data size (f.size - size) '\000';
            f.size <- size;
            0);
    fsync = (fun _fd -> charge_syscall ctx; 0);
    unlink =
      (fun path ->
        charge_syscall ctx;
        if Hashtbl.mem files path then (Hashtbl.remove files path; 0)
        else Libos.Sysdefs.enoent);
    exists = (fun path -> charge_syscall ctx; Hashtbl.mem files path);
    rename =
      (fun ~old_name ~new_name ->
        charge_syscall ctx;
        match Hashtbl.find_opt files old_name with
        | None -> Libos.Sysdefs.enoent
        | Some f ->
            Hashtbl.remove files old_name;
            Hashtbl.replace files new_name f;
            0);
  }
