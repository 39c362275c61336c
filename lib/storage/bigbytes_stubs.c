/* Copies and file I/O for Bigbytes: byte arrays outside the OCaml heap.
 *
 * Every stub is [@@noalloc]: it takes already bounds-checked offsets from
 * the OCaml side, allocates nothing and raises nothing, so the call costs
 * no more than a C function call. The I/O stubs report failure as a
 * negative errno, which the OCaml side turns into Unix.Unix_error; they
 * hold the runtime lock across the syscall, like any noalloc call, which
 * a page-sized transfer on a regular file can afford.
 */

#include <errno.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>
#include <sys/types.h>

#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <caml/unixsupport.h>

#define Data(v) ((unsigned char *)Caml_ba_data_val(v))

value ode_bigbytes_blit(value src, value soff, value dst, value doff, value len)
{
  memmove(Data(dst) + Long_val(doff), Data(src) + Long_val(soff), Long_val(len));
  return Val_unit;
}

value ode_bigbytes_blit_from_string(value src, value soff, value dst, value doff, value len)
{
  memcpy(Data(dst) + Long_val(doff), String_val(src) + Long_val(soff), Long_val(len));
  return Val_unit;
}

value ode_bigbytes_blit_to_bytes(value src, value soff, value dst, value doff, value len)
{
  memcpy(Bytes_val(dst) + Long_val(doff), Data(src) + Long_val(soff), Long_val(len));
  return Val_unit;
}

value ode_bigbytes_fill(value b, value off, value len, value c)
{
  memset(Data(b) + Long_val(off), Int_val(c), Long_val(len));
  return Val_unit;
}

value ode_bigbytes_pread(value fd, value b, value pos, value len, value off)
{
  ssize_t r = pread(Int_val(fd), Data(b) + Long_val(pos), Long_val(len), (off_t)Long_val(off));
  return Val_long(r < 0 ? -errno : r);
}

value ode_bigbytes_pwrite(value fd, value b, value pos, value len, value off)
{
  ssize_t r = pwrite(Int_val(fd), Data(b) + Long_val(pos), Long_val(len), (off_t)Long_val(off));
  return Val_long(r < 0 ? -errno : r);
}

/* Free a managed array's bytes now rather than when the GC finalises it,
 * and leave it of length 0 with no data, so every bounds-checked access
 * to it raises and the finaliser's free(NULL) does nothing. An array that
 * shares its bytes with another (a sub-array or a mapped file) is left
 * alone; Bigbytes makes none. */
value ode_bigbytes_release(value v)
{
  struct caml_ba_array *b = Caml_ba_array_val(v);
  if ((b->flags & CAML_BA_MANAGED_MASK) == CAML_BA_MANAGED && b->proxy == NULL) {
    free(b->data);
    b->data = NULL;
    b->dim[0] = 0;
  }
  return Val_unit;
}

/* Allocates: called only on the error path, to build the exception. */
value ode_bigbytes_error_of_code(value code)
{
  return caml_unix_error_of_code(Int_val(code));
}
