/* SIGPROF PC sampler: an LD_PRELOAD library for host-side profiling.
 *
 * Arms a 1 ms ITIMER_PROF (CPU time of the whole process). Each SIGPROF
 * records the interrupted PC and the caller chain above it. At exit the
 * samples and /proc/self/maps go to sigprof.<pid>.txt in the working
 * directory; tools/sigprof/report.py turns them into per-function shares.
 *
 *   cc -O2 -shared -fPIC -o sigprof.so tools/sigprof/sampler.c
 *   LD_PRELOAD=$PWD/sigprof.so ./program args...
 *   python3 tools/sigprof/report.py sigprof.<pid>.txt
 *
 * The kernel delivers the signal at its tick, so the effective period can
 * be coarser than 1 ms (4 ms at HZ=250). Build the profiled program with
 * debug info (RelWithDebInfo) so report.py can name functions.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <inttypes.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kMaxSamples = 1 << 16, kMaxDepth = 32 };

static void* frames[kMaxSamples][kMaxDepth];
static unsigned char depth[kMaxSamples];
static int taken;  /* slots claimed; signals may land on any thread */

static void* interrupted_pc(void* uctx) {
  const ucontext_t* uc = (const ucontext_t*)uctx;
#if defined(__x86_64__)
  return (void*)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  return (void*)uc->uc_mcontext.pc;
#else
  (void)uc;
  return NULL;
#endif
}

static void on_prof(int sig, siginfo_t* info, void* uctx) {
  (void)sig;
  (void)info;
  const int n = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
  if (n >= kMaxSamples) return;
  void* stack[kMaxDepth + 4];
  const int got = backtrace(stack, kMaxDepth + 4);
  void* pc = interrupted_pc(uctx);
  /* stack[0] is this handler and stack[1] the signal trampoline; the
   * interrupted frame follows. Keep it and its callers. */
  int first = got < 2 ? got : 2;
  for (int i = 0; i < got; ++i)
    if (stack[i] == pc) {
      first = i;
      break;
    }
  int d = 0;
  frames[n][d++] = pc;
  for (int i = first + 1; i < got && d < kMaxDepth; ++i) frames[n][d++] = stack[i];
  __atomic_store_n(&depth[n], (unsigned char)d, __ATOMIC_RELEASE);
}

static void write_profile(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  char path[64];
  snprintf(path, sizeof path, "sigprof.%d.txt", (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  const int claimed = __atomic_load_n(&taken, __ATOMIC_ACQUIRE);
  const int kept = claimed < kMaxSamples ? claimed : kMaxSamples;
  fprintf(out, "# sigprof samples=%d dropped=%d\nmaps\n", kept,
          claimed - kept);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof line, maps) != NULL) fputs(line, out);
    fclose(maps);
  }
  fputs("samples\n", out);
  for (int s = 0; s < kept; ++s) {
    const int d = __atomic_load_n(&depth[s], __ATOMIC_ACQUIRE);
    if (d == 0) continue; /* claimed as the timer stopped */
    for (int i = 0; i < d; ++i)
      fprintf(out, i == 0 ? "%" PRIxPTR : " %" PRIxPTR, (uintptr_t)frames[s][i]);
    fputc('\n', out);
  }
  fclose(out);
  fprintf(stderr, "sigprof: %d samples -> %s\n", kept, path);
}

__attribute__((constructor)) static void sigprof_start(void) {
  /* The first backtrace() loads the unwinder; do it outside the handler. */
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  atexit(write_profile);
  const struct itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, NULL);
}
