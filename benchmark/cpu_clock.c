/* CPU time of the whole process in nanoseconds. Unlike wall time it
   leaves out time the process spends descheduled, and on a guest kernel
   with steal-time accounting, time the hypervisor runs someone else. */

#include <time.h>
#include <caml/mlvalues.h>

value lvbench_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
