/* Off-heap backing for simulated physical memory.

   The machine's memory is one calloc'd block wrapped in a managed char
   Bigarray. calloc guarantees zeroes; for a block this large glibc
   serves it from a fresh anonymous mapping, so a page of simulated
   memory costs host memory only once something writes it. The block is
   freed when the Bigarray is finalised.

   The copy stubs move bytes between that block and OCaml buffers. They
   check nothing: Phys_mem validates both the simulated and the host
   range before calling them. They neither allocate nor raise, so they
   are declared [@@noalloc]. */
#include <stdlib.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <caml/fail.h>

#define Mem_at(ba, off) ((char *)Caml_ba_data_val(ba) + Long_val(off))

value cubicle_phys_mem_alloc(value vbytes)
{
  intnat bytes = Long_val(vbytes);
  void *data = calloc((size_t)bytes, 1);
  if (data == NULL) caml_raise_out_of_memory();
  return caml_ba_alloc_dims(CAML_BA_CHAR | CAML_BA_C_LAYOUT | CAML_BA_MANAGED, 1, data,
                            bytes);
}

value cubicle_phys_mem_to_bytes(value mem, value src, value buf, value pos, value len)
{
  memcpy(Bytes_val(buf) + Long_val(pos), Mem_at(mem, src), Long_val(len));
  return Val_unit;
}

value cubicle_phys_mem_of_bytes(value buf, value pos, value mem, value dst, value len)
{
  memcpy(Mem_at(mem, dst), Bytes_val(buf) + Long_val(pos), Long_val(len));
  return Val_unit;
}

value cubicle_phys_mem_move(value mem, value src, value dst, value len)
{
  memmove(Mem_at(mem, dst), Mem_at(mem, src), Long_val(len));
  return Val_unit;
}

value cubicle_phys_mem_fill(value mem, value dst, value len, value c)
{
  memset(Mem_at(mem, dst), Int_val(c), Long_val(len));
  return Val_unit;
}
