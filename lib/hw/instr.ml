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

(* Both forbidden sequences, wrpkru = [0F 01 EF] and syscall = [0F 05],
   start with 0x0F, so the scan jumps from one 0x0F byte to the next
   and tests the bytes after it. Hits come out in ascending offset
   order; the two cannot start at the same offset. *)
let scan_forbidden code =
  let n = Bytes.length code in
  let rec from off acc =
    match Bytes.index_from_opt code off '\x0F' with
    | None -> List.rev acc
    | Some i ->
        let byte k = if i + k < n then Bytes.get code (i + k) else '\x00' in
        let acc =
          match (byte 1, byte 2) with
          | '\x01', '\xEF' -> { offset = i; what = "wrpkru" } :: acc
          | '\x05', _ -> { offset = i; what = "syscall" } :: acc
          | _ -> acc
        in
        from (i + 1) acc
  in
  from 0 []

(* A cheap deterministic PRNG so synthesized images are stable across
   runs (benchmark reproducibility). The mask binds to the constant,
   not the sum ([12345 land 0x3FFFFFFF] is 12345), so the state is the
   whole wrapped product plus 12345. Kept exactly as written: every
   synthesized image derives from it. *)
let lcg seed = (seed * 1103515245) + 12345 land 0x3FFFFFFF
let lcg_out seed = (seed lsr 7) land 0xFFFFFF

(* The generator's six choices, by [lcg_out mod 6]: Nop, Mov_imm,
   Load, Store, Add, Call. Their opcode bytes, encoded lengths, and
   how many more LCG draws each takes for its operands. *)
let synth_opcode = "\x90\xB8\x8B\x89\x01\xE8"
let synth_length = "\001\006\006\006\003\005"
let synth_draws = "\000\002\002\002\002\001"

(* Encodes the [n] remaining pseudo-random instructions into [buf] at
   [pos], then [Ret]; returns the end position. [buf] needs 6 bytes
   per instruction plus one. The choice is random, so a branch on it
   would mispredict about every other instruction: instead each step
   draws all three LCG values any choice could use and writes the
   union of the two operand layouts, [op reg imm32] and [op rel32]:
   - Mov_imm, Load, Store: the register is the third draw, the
     immediate the second;
   - Add: [op r1 r2] is the first three bytes of [op reg imm32], with
     r1 the third draw and r2 the second (the immediate's low byte);
   - Call: the displacement is the second draw;
   - Nop: the opcode alone.
   Bytes past an instruction's length are overwritten by the next one,
   and the state moves on by exactly the draws the choice used, so the
   stream is the one the generator has always produced. Registers are
   masked to 0x0E and immediates to 0x0E0E0E, so no operand byte is
   0x0F and the image holds no forbidden sequence. *)
let rec synth_from buf seed pos n =
  if n = 0 then begin
    Bytes.set buf pos '\xC3';
    pos + 1
  end
  else
    let s1 = lcg seed in
    let k = lcg_out s1 mod 6 in
    let s2 = lcg s1 in
    let s3 = lcg s2 in
    Bytes.set buf (pos + 1) (Char.unsafe_chr (lcg_out s3 land 0x0E));
    Bytes.set_int32_le buf (pos + 2 - (k / 5)) (Int32.of_int (lcg_out s2 land 0x0E0E0E));
    Bytes.set buf pos (String.unsafe_get synth_opcode k);
    let draws = Char.code (String.unsafe_get synth_draws k) in
    (* s1, s2 or s3 for 0, 1 or 2 draws; wrapping arithmetic keeps it
       exact *)
    let seed = s1 + ((s2 - s1) * (draws land 1)) + ((s3 - s1) * (draws lsr 1)) in
    synth_from buf seed (pos + Char.code (String.unsafe_get synth_length k)) (n - 1)

let synth_code ?(ops = 256) name =
  let buf = Bytes.create ((6 * ops) + 1) in
  let len = synth_from buf (Hashtbl.hash name land 0x3FFFFFFF) 0 ops in
  Bytes.sub buf 0 len
