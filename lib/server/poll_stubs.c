/* poll(2) for the serving event loop.
 *
 * Unix.select caps the universe at FD_SETSIZE (1024) descriptors and pays
 * O(universe) per call; poll takes an explicit array and has no ceiling
 * short of the process rlimit. The binding keeps the interface deliberately
 * dumb: three parallel arrays (fds, interest masks, readiness masks) and a
 * length, so the OCaml side can reuse buffers across iterations without
 * allocating per tick.
 *
 * Interest/readiness masks: bit 0 = readable, bit 1 = writable. Error
 * conditions (POLLERR/POLLHUP/POLLNVAL) are folded into both bits — the
 * caller's next read/write on that fd surfaces the actual error, which is
 * how the event loop already handles failure.
 *
 * The runtime lock is released around the syscall, as for any blocking
 * call, so the rest of the process keeps running while the loop sleeps in
 * poll.
 */

#include <poll.h>
#include <errno.h>
#include <string.h>
#include <stdlib.h>

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/threads.h>

CAMLprim value ode_poll_stub_native(value v_fds, value v_events, value v_revents,
                                    value v_len, value v_timeout_ms)
{
  CAMLparam5(v_fds, v_events, v_revents, v_len, v_timeout_ms);
  int n = Int_val(v_len);
  int timeout = Int_val(v_timeout_ms);
  struct pollfd *pfds = NULL;
  int i, r;

  if (n < 0 || n > (int)Wosize_val(v_fds) || n > (int)Wosize_val(v_events) ||
      n > (int)Wosize_val(v_revents))
    caml_invalid_argument("poll: length exceeds buffer");

  if (n > 0) {
    pfds = malloc(sizeof(struct pollfd) * (size_t)n);
    if (pfds == NULL) caml_failwith("poll: out of memory");
    for (i = 0; i < n; i++) {
      int ev = Int_val(Field(v_events, i));
      pfds[i].fd = Int_val(Field(v_fds, i));
      pfds[i].events = (short)((ev & 1 ? POLLIN : 0) | (ev & 2 ? POLLOUT : 0));
      pfds[i].revents = 0;
    }
  }

  caml_release_runtime_system();
  r = poll(pfds, (nfds_t)n, timeout);
  caml_acquire_runtime_system();

  /* EINTR counts as a timeout: the loop re-checks its stop/promote flags
     every iteration anyway, which is all a signal needs. */
  if (r < 0 && errno == EINTR) r = 0;
  if (r < 0) {
    int e = errno;
    free(pfds);
    caml_failwith(strerror(e));
  }

  for (i = 0; i < n; i++) {
    int rv = (r == 0) ? 0 : pfds[i].revents;
    int bits = 0;
    if (rv & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) bits |= 1;
    if (rv & (POLLOUT | POLLHUP | POLLERR | POLLNVAL)) bits |= 2;
    Field(v_revents, i) = Val_int(bits);
  }
  free(pfds);
  CAMLreturn(Val_int(r));
}

CAMLprim value ode_poll_stub_bytecode(value *argv, int argn)
{
  (void)argn;
  return ode_poll_stub_native(argv[0], argv[1], argv[2], argv[3], argv[4]);
}
