type t =
  | Nop
  | Ret
  | Halt
  | Jmp of int
  | Call of int
  | Mov_imm of int * int
  | Load of int * int
  | Store of int * int
  | Add of int * int
  | Wrpkru
  | Rdpkru
  | Syscall

(* Opcode bytes are chosen to avoid colliding with 0x0F prefixes except
   for the genuine x86 encodings of the privileged instructions. *)
let add_reg b r = Buffer.add_char b (Char.chr (r land 0xFF))
let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)

let emit b = function
  | Nop -> Buffer.add_char b '\x90'
  | Ret -> Buffer.add_char b '\xC3'
  | Halt -> Buffer.add_char b '\xF4'
  | Jmp d -> Buffer.add_char b '\xE9'; add_u32 b d
  | Call d -> Buffer.add_char b '\xE8'; add_u32 b d
  | Mov_imm (r, imm) -> Buffer.add_char b '\xB8'; add_reg b r; add_u32 b imm
  | Load (r, a) -> Buffer.add_char b '\x8B'; add_reg b r; add_u32 b a
  | Store (r, a) -> Buffer.add_char b '\x89'; add_reg b r; add_u32 b a
  | Add (r1, r2) -> Buffer.add_char b '\x01'; add_reg b r1; add_reg b r2
  | Wrpkru -> Buffer.add_string b "\x0F\x01\xEF"
  | Rdpkru -> Buffer.add_string b "\x0F\x01\xEE"
  | Syscall -> Buffer.add_string b "\x0F\x05"

let encode i =
  let b = Buffer.create 6 in
  emit b i;
  Buffer.contents b

let length i = String.length (encode i)

let assemble instrs =
  let b = Buffer.create 1024 in
  List.iter (emit b) instrs;
  Buffer.to_bytes b

let rd32 code off =
  if off + 4 > Bytes.length code then None
  else Some (Int32.to_int (Bytes.get_int32_le code off))

let decode code off =
  if off >= Bytes.length code then None
  else
    let byte i =
      if off + i < Bytes.length code then Some (Char.code (Bytes.get code (off + i)))
      else None
    in
    match Char.code (Bytes.get code off) with
    | 0x90 -> Some (Nop, off + 1)
    | 0xC3 -> Some (Ret, off + 1)
    | 0xF4 -> Some (Halt, off + 1)
    | 0xE9 -> Option.map (fun d -> (Jmp d, off + 5)) (rd32 code (off + 1))
    | 0xE8 -> Option.map (fun d -> (Call d, off + 5)) (rd32 code (off + 1))
    | 0xB8 -> (
        match (byte 1, rd32 code (off + 2)) with
        | Some r, Some imm -> Some (Mov_imm (r, imm), off + 6)
        | _ -> None)
    | 0x8B -> (
        match (byte 1, rd32 code (off + 2)) with
        | Some r, Some a -> Some (Load (r, a), off + 6)
        | _ -> None)
    | 0x89 -> (
        match (byte 1, rd32 code (off + 2)) with
        | Some r, Some a -> Some (Store (r, a), off + 6)
        | _ -> None)
    | 0x01 -> (
        match (byte 1, byte 2) with
        | Some r1, Some r2 -> Some (Add (r1, r2), off + 3)
        | _ -> None)
    | 0x0F -> (
        match (byte 1, byte 2) with
        | Some 0x05, _ -> Some (Syscall, off + 2)
        | Some 0x01, Some 0xEF -> Some (Wrpkru, off + 3)
        | Some 0x01, Some 0xEE -> Some (Rdpkru, off + 3)
        | _ -> None)
    | _ -> None

type forbidden = { offset : int; what : string }

let forbidden_seqs = [ ("\x0F\x01\xEF", "wrpkru"); ("\x0F\x05", "syscall") ]

let scan_forbidden code =
  let n = Bytes.length code in
  let hits = ref [] in
  (* one closure for the whole scan, not one per offset *)
  let rec at off = function
    | [] -> ()
    | (seq, what) :: rest ->
        let len = String.length seq in
        if off + len <= n then begin
          let matches = ref true in
          for i = 0 to len - 1 do
            if Bytes.get code (off + i) <> seq.[i] then matches := false
          done;
          if !matches then hits := { offset = off; what } :: !hits
        end;
        at off rest
  in
  for off = n - 1 downto 0 do
    at off forbidden_seqs
  done;
  !hits

(* A cheap deterministic PRNG so synthesized images are stable across
   runs (benchmark reproducibility). *)
let synth_code ?(ops = 256) name =
  let seed = ref (Hashtbl.hash name land 0x3FFFFFFF) in
  let next () =
    seed := (!seed * 1103515245) + 12345 land 0x3FFFFFFF;
    (!seed lsr 7) land 0xFFFFFF
  in
  let rec gen n acc =
    if n = 0 then List.rev (Ret :: acc)
    else
      let i =
        (* Immediates are masked so they cannot contain a 0x0F byte,
           keeping synthesized images free of forbidden sequences. *)
        let imm () = next () land 0x0E0E0E in
        match next () mod 6 with
        | 0 -> Nop
        | 1 -> Mov_imm (next () land 0x0E, imm ())
        | 2 -> Load (next () land 0x0E, imm ())
        | 3 -> Store (next () land 0x0E, imm ())
        | 4 -> Add (next () land 0x0E, next () land 0x0E)
        | _ -> Call (imm ())
      in
      gen (n - 1) (i :: acc)
  in
  assemble (gen ops [])
