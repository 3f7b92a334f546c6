"""The benchmark's span tracer still finds every layer boundary it patches.

`perfbench/layertrace.Tracer.install` wraps module attributes by name and
skips a name that no longer exists, so renaming or removing one of them
would silently turn its per-layer metrics into zeros.
"""
import os
import subprocess
import sys
import textwrap

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_INSTALL = textwrap.dedent("""
    import sys
    from layertrace import Tracer

    patched = []
    original = Tracer._patch

    def recording(self, owner, attr, *args, **kwargs):
        patched.append((owner, attr))
        return original(self, owner, attr, *args, **kwargs)

    Tracer._patch = recording
    Tracer().install()
    for owner, attr in patched:
        name = getattr(owner, "__name__", owner)
        wrapped = hasattr(getattr(owner, attr, None), "__wrapped__")
        print(name, attr, "wrapped" if wrapped else "MISSING")
""")


def test_every_traced_boundary_exists():
    env = dict(os.environ)
    paths = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "perfbench"),
             env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    run = subprocess.run([sys.executable, "-c", _INSTALL],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line for line in lines if line.endswith("MISSING")] == []
    # the fixed boundaries, before the per-function autfam/gradelie/matrix
    # ones found by scanning claims
    for kernel in ("scan_triple", "scan_pair_with_trace",
                   "scan_algebra_unit_fixing", "scan_similitudes"):
        assert f"jpaut.fastscan {kernel} wrapped" in lines
    assert "AutomorphismSet verify_group_closed wrapped" in lines
    assert len(lines) > 20
