"""Unit tests for the gate-level functional driver helpers."""


from repro.bench import load
from repro.etpn import default_design
from repro.gates.drive import broadcast, functional_vectors, read_word
from repro.gates.simulate import FULL
from repro.rtl import build_control_table, generate_rtl


class TestHelpers:
    def test_broadcast(self):
        assert broadcast(1) == FULL
        assert broadcast(0) == 0

    def test_read_word(self):
        outputs = {"out_z[0]": 1, "out_z[1]": 0, "out_z[2]": FULL,
                   "out_z[3]": 0}
        assert read_word(outputs, "out_z", 4) == 0b0101

    def test_functional_vectors_structure(self):
        design = default_design(load("tseng"))
        rtl = generate_rtl(design, 4)
        table = build_control_table(design, rtl)
        vectors = functional_vectors(rtl, table, {v.name: 3 for v
                                                  in design.dfg.inputs()})
        assert len(vectors) == table.phase_count
        # Data bits present every cycle; control bits only where set.
        assert "in_a[0]" in vectors[0]
        assert all(v in (0, FULL) for v in vectors[0].values())

    def test_control_signals_follow_table(self):
        design = default_design(load("tseng"))
        rtl = generate_rtl(design, 4)
        table = build_control_table(design, rtl)
        vectors = functional_vectors(rtl, table,
                                     {v.name: 0 for v in design.dfg.inputs()})
        for phase, cycle in enumerate(vectors):
            for signal, value in table.phases[phase].items():
                assert cycle[signal] == broadcast(value)


class TestErrorsModule:
    def test_hierarchy(self):
        from repro import errors
        for name in ("DFGError", "ScheduleError", "BindingError",
                     "NetlistError", "ATPGError", "HDLSyntaxError",
                     "HDLSemanticError"):
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_hdl_syntax_error_location(self):
        from repro.errors import HDLSyntaxError
        err = HDLSyntaxError("bad token", line=3, column=7)
        assert "line 3" in str(err)
        assert err.line == 3 and err.column == 7
