type image = {
  img_name : string;
  code : bytes;
  rodata : bytes;
  data : bytes;
  signed : bool;
}

type loaded = {
  cid : Types.cid;
  code_base : int;
  code_pages : int;
  rodata_base : int;
  data_base : int;
}

type scanned = image

let scans = ref 0
let scan_count () = !scans

let scan img =
  if not img.signed then begin
    incr scans;
    match Hw.Instr.scan_forbidden img.code with
    | [] -> ()
    | hits -> raise (Types.Denied (Forbidden_code { image = img.img_name; hits }))
  end;
  img

(* Copy a blob into freshly mapped pages owned by the cubicle. The blob
   is written with monitor privileges before the final (possibly
   execute-only) permission is applied. *)
let map_blob mon cid blob ~kind ~perm =
  let len = Bytes.length blob in
  if len = 0 then 0
  else begin
    let npages = Hw.Addr.pages_for len in
    let base =
      Monitor.alloc_owned_pages mon cid npages ~kind ~perm:Hw.Page_table.perm_rw
    in
    let cpu = Monitor.cpu mon in
    Hw.Cpu.priv_write_bytes cpu base blob;
    let first = Hw.Addr.page_of base in
    for p = first to first + npages - 1 do
      Hw.Page_table.set_perm (Hw.Cpu.page_table cpu) p perm
    done;
    base
  end

let load_scanned mon img ~kind ~heap_pages ~stack_pages ~exports =
  let cid = Monitor.create_cubicle mon ~name:img.img_name ~kind ~heap_pages ~stack_pages in
  (* Code pages are execute-only: CubicleOS never lets a cubicle read or
     change the permissions of code (§5.4 rule 1). *)
  let code_base = map_blob mon cid img.code ~kind:Mm.Page_meta.Code ~perm:Hw.Page_table.perm_x in
  let rodata_base = map_blob mon cid img.rodata ~kind:Mm.Page_meta.Global ~perm:Hw.Page_table.perm_r in
  let data_base = map_blob mon cid img.data ~kind:Mm.Page_meta.Global ~perm:Hw.Page_table.perm_rw in
  Monitor.register_exports mon cid exports;
  {
    cid;
    code_base;
    code_pages = Hw.Addr.pages_for (Bytes.length img.code);
    rodata_base;
    data_base;
  }

let load mon img = load_scanned mon (scan img)

let image_of_ops ~name ?(data_bytes = 256) ?(ops = 256) () =
  {
    img_name = name;
    code = Hw.Instr.synth_code ~ops name;
    rodata = Bytes.empty;
    data = Bytes.make data_bytes '\000';
    signed = false;
  }
