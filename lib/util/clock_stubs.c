/* The monotonic clock for Trace.now_ns.
 *
 * [@@noalloc]: it allocates nothing and raises nothing, and the reading
 * fits an OCaml int (2^62 ns is about 146 years of uptime).
 */

#include <time.h>

#include <caml/mlvalues.h>

value ode_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + ts.tv_nsec);
}
