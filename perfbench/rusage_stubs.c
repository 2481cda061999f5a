/* wait4 without blocking: the exit status and peak resident set of a
   child that has finished, so a short-lived process's memory peak is
   read exactly instead of sampled from /proc while it runs. */

#include <errno.h>
#include <sys/types.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>

/* [perfbench_reap pid] is [(-1, 0)] while the child runs, [(-2, 0)] when
   wait4 fails, else [(code, maxrss_kb)] where code is the exit status,
   or 128 + signal. */
value perfbench_reap(value pid)
{
  CAMLparam1(pid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r = wait4(Int_val(pid), &status, WNOHANG, &ru);
  long code = -1, kb = 0;
  if (r == Int_val(pid)) {
    code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    kb = ru.ru_maxrss;
  } else if (r < 0 && errno != EINTR) {
    code = -2;
  }
  res = caml_alloc_tuple(2);
  Store_field(res, 0, Val_long(code));
  Store_field(res, 1, Val_long(kb));
  CAMLreturn(res);
}
