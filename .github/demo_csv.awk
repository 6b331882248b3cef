# Writes a demo CSV for the CLI steps in ci.yml: a 0/1 sensitive column
# `sens`, eight uniform features in [-1, 1) and a 0/1 label that depends
# on x0, x1 and `sens`, one row per line. Run as
# `awk -v n=<rows> -v seed=<seed> -f .github/demo_csv.awk`.
BEGIN {
  srand(seed); print "sens,x0,x1,x2,x3,x4,x5,x6,x7,label";
  for (i = 0; i < n; i++) {
    printf "%d", i % 2;
    for (j = 0; j < 8; j++) {
      x[j] = rand() * 2 - 1;
      printf ",%.4f", x[j];
    }
    printf ",%d\n", (x[0] + 0.5 * x[1] > (i % 2 ? 0.3 : -0.2));
  }
}
