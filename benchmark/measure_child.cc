// Runs one command and reports what it cost: exit code, wall seconds,
// user + sys CPU seconds and peak resident set size.
//
// run.py cannot take the peak RSS from its own wait4(): Linux carries a
// parent's RSS high-water mark into a child across fork and exec, so every
// child of the ~20 MB Python process would report at least 20 MB. This
// launcher is a few hundred KB, so the peak its children report is their
// own.
//
// Usage: measure_child STDOUT_FILE STDERR_FILE PROGRAM [ARGS...]
// Prints "<exit code> <wall s> <cpu s> <peak RSS KiB>" on stdout; a child
// killed by signal N reports exit code 128 + N.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: measure_child STDOUT_FILE STDERR_FILE PROGRAM [ARGS...]\n");
    return 2;
  }
  const pid_t parent = getpid();
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("measure_child: fork");
    return 1;
  }
  if (pid == 0) {
    // The command must not outlive an interrupted benchmark.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    const int out = open(argv[1], O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err = open(argv[2], O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0 || err < 0 || dup2(out, 1) < 0 || dup2(err, 2) < 0) _exit(126);
    execvp(argv[3], argv + 3);
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("measure_child: wait4");
    return 1;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  const double cpu = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                     static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
  std::printf("%d %.9f %.6f %ld\n", code, wall, cpu, usage.ru_maxrss);
  return 0;
}
