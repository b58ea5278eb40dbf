"""Config parsing, packaged defaults, CSV/JSON I/O, and run manifests."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trapnoise.configio import (
    ConfigFileError,
    DataFileError,
    config_roles,
    format_value,
    load_circuit,
    load_configs,
    load_materials,
    load_scene,
    load_stack,
    load_surface_params,
    load_synth_params,
    load_temp_params,
    make_manifest,
    packaged_config,
    read_alpha_csv,
    read_heating_csv,
    write_csv,
    write_heating_csv,
    write_json_report,
)
from trapnoise.constants import DomainError
from trapnoise.inference import HeatingDataset, HeatingRecord
from trapnoise.materials import (
    Conductor,
    LossyDielectric,
    TwoFluidSC,
    Vacuum,
)


@pytest.fixture(scope="module")
def materials():
    return load_materials(packaged_config("materials", "default"))


def csv_manifest(path) -> dict:
    """The manifest of a CSV this package wrote, read from its first line."""
    first = path.read_text().splitlines()[0]
    assert first.startswith("# manifest: ")
    return json.loads(first.removeprefix("# manifest: "))


# ---------------------------------------------------------------------------
# packaged configuration files


def test_default_materials(materials):
    assert set(materials) == {"vacuum", "au", "cu", "al", "ybco", "sapphire"}
    assert isinstance(materials["vacuum"], Vacuum)
    assert isinstance(materials["au"], Conductor)
    assert isinstance(materials["cu"], Conductor)
    assert isinstance(materials["al"], Conductor)
    assert isinstance(materials["ybco"], TwoFluidSC)
    assert isinstance(materials["sapphire"], LossyDielectric)
    # spot checks against the shipped values
    assert materials["au"].rho.lookup(300.0) == pytest.approx(2.271e-8)
    ybco = materials["ybco"]
    assert ybco.lambda0 == pytest.approx(150e-9)
    assert ybco.Tc == pytest.approx(89.0)
    assert ybco.sigma_n == pytest.approx(1.81e6)
    assert materials["sapphire"].eps_r == pytest.approx(10.0)


def test_packaged_stacks(materials):
    full = load_stack(packaged_config("stacks", "sapphire-ybco-au"), materials)
    kinds = [(type(l.material).__name__, l.thickness) for l in full.layers]
    assert kinds == [
        ("Conductor", pytest.approx(200e-9)),
        ("TwoFluidSC", pytest.approx(300e-9)),
        ("LossyDielectric", None),
    ]
    bare = load_stack(packaged_config("stacks", "sapphire-ybco"), materials)
    kinds = [(type(l.material).__name__, l.thickness) for l in bare.layers]
    assert kinds == [
        ("TwoFluidSC", pytest.approx(300e-9)),
        ("LossyDielectric", None),
    ]


def test_packaged_trap_circuit(materials):
    elecs = load_circuit(packaged_config("circuits", "ybco-trap"), materials)
    names = [e.name for e in elecs]
    assert names == ["C1", "C2", "CC"] + [f"DC{i}" for i in range(1, 11)]
    by_name = {e.name: e for e in elecs}
    c1 = by_name["C1"]
    assert c1.characteristic_distance == pytest.approx(5.10e-3)
    assert c1.strip_length == pytest.approx(5.0e-3)
    assert c1.strip_width == pytest.approx(25e-6)
    assert [f.material.name for f in c1.films] == ["au", "ybco"]
    assert c1.bonds == 1
    assert c1.filter.series_r == pytest.approx(100.0)
    assert len(c1.filter.capacitors) == 2
    cc = by_name["CC"]
    assert cc.characteristic_distance == pytest.approx(24.3e-3)
    assert cc.bonds == 2
    dc = by_name["DC7"]
    assert dc.characteristic_distance == pytest.approx(20e-3)
    # the ten DC electrodes are identical copies apart from the name
    assert by_name["DC1"].strip_width == by_name["DC10"].strip_width


def test_packaged_benchmark_circuit(materials):
    elecs = load_circuit(
        packaged_config("circuits", "al-lead-benchmark"), materials
    )
    assert len(elecs) == 2
    for e in elecs:
        assert e.films == ()
        assert e.filter is None
        assert e.lead.pcb_trace.material.name == "al"
        assert e.characteristic_distance == pytest.approx(5.10e-3)


def test_packaged_scene():
    scene = load_scene(packaged_config("scenes", "ybco-chip"))
    assert scene.ion_height == pytest.approx(225e-6)
    assert scene.axial_dir == pytest.approx((1.0, 0.0))
    names = [r.name for r in scene.regions]
    assert names == ["ybco", "au-south", "au-north", "au-west", "au-east"]
    ybco = scene.region("ybco")
    x0, x1, y0, y1 = ybco.rect
    assert (x0, x1) == pytest.approx((-370e-6, 370e-6))
    assert (y0, y1) == pytest.approx((-290e-6, 290e-6))


def test_packaged_temperature_params():
    piecewise = load_temp_params(packaged_config("synth", "temp-piecewise"))
    assert piecewise.piecewise is True
    assert piecewise.t1 == pytest.approx(46.2)
    assert piecewise.beta1 == pytest.approx(3.39)
    assert piecewise.t2 == pytest.approx(102.9)
    assert piecewise.beta2 == pytest.approx(4.14)
    assert piecewise.t_star == pytest.approx(92.5)
    assert piecewise.gamma0[1.0e6] == pytest.approx(0.70)
    assert len(piecewise.gamma0) == 6
    simple = load_temp_params(packaged_config("synth", "temp-simple"))
    assert simple.piecewise is False
    assert simple.t1 == pytest.approx(22.1)
    assert simple.gamma0[0.4e6] == pytest.approx(2.18)


def test_packaged_surface_params():
    power = load_surface_params(packaged_config("synth", "surface-power"), "power")
    assert power == {
        "s_e0": pytest.approx(3.7e-15),
        "beta": pytest.approx(1.9),
        "t0": pytest.approx(32.0),
    }
    arrh = load_surface_params(
        packaged_config("synth", "surface-arrhenius"), "arrhenius"
    )
    assert arrh == {
        "s_e0": pytest.approx(4.7e-15),
        "s_et": pytest.approx(2.1e-13),
        "t0": pytest.approx(169.0),
    }
    # asking for the wrong kind reports the missing key
    with pytest.raises(ConfigFileError):
        load_surface_params(packaged_config("synth", "surface-power"), "arrhenius")


def test_packaged_config_missing_name():
    with pytest.raises(ConfigFileError):
        packaged_config("stacks", "no-such-stack")


# ---------------------------------------------------------------------------
# role detection


def test_config_roles_detection():
    assert config_roles(packaged_config("materials", "default")) == {"materials"}
    assert config_roles(packaged_config("stacks", "sapphire-ybco")) == {"stack"}
    assert config_roles(packaged_config("circuits", "ybco-trap")) == {"circuit"}
    assert config_roles(packaged_config("scenes", "ybco-chip")) == {"scene"}
    assert config_roles(packaged_config("synth", "temp-piecewise")) == {"params"}


def test_config_roles_unknown_section(tmp_path):
    path = tmp_path / "odd.cfg"
    path.write_text("[mystery]\nvalue = 1\n")
    with pytest.raises(ConfigFileError) as err:
        config_roles(path)
    assert "mystery" in str(err.value)


# ---------------------------------------------------------------------------
# what a command reads


def test_load_configs_fills_every_role_from_the_packaged_defaults():
    paths, loaded = load_configs([], ("materials", "stack"))
    assert paths == [str(packaged_config("materials", "default")),
                     str(packaged_config("stacks", "sapphire-ybco"))]
    assert list(loaded) == ["materials", "stack"]
    # the stack is built on the materials it returns
    materials = loaded["materials"]
    assert all(layer.material is materials[layer.material.name]
               for layer in loaded["stack"].layers)
    assert load_configs([], ("scene",))[0] == [str(packaged_config("scenes", "ybco-chip"))]
    assert load_configs([], ("materials", "circuit"))[0][1] == str(
        packaged_config("circuits", "ybco-trap"))


def test_load_configs_loads_the_materials_first(tmp_path):
    # the stack names a material only the given file defines
    cfg = tmp_path / "both.cfg"
    cfg.write_text("[material:void]\nkind = vacuum\n\n[stack]\nlayers = void bulk\n")
    paths, loaded = load_configs([cfg], ("stack", "materials"))
    assert paths == [str(cfg), str(cfg)]
    assert loaded["stack"].layers[0].material is loaded["materials"]["void"]


def test_load_configs_duplicate_role(tmp_path):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    a.write_text("[stack]\nname = one\nlayers = vacuum bulk\n")
    b.write_text("[stack]\nname = two\nlayers = vacuum bulk\n")
    with pytest.raises(ConfigFileError) as err:
        load_configs([str(a), str(b)], ("stack",))
    assert str(err.value) == f"role 'stack' given twice: {a} and {b}"


def test_load_configs_rejects_a_file_with_no_needed_role():
    scene = packaged_config("scenes", "ybco-chip")
    with pytest.raises(ConfigFileError) as err:
        load_configs([scene], ("materials", "stack"))
    assert str(err.value) == (
        f"{scene}: provides none of the roles ('materials', 'stack') used here"
    )


def test_load_configs_takes_the_needed_roles_of_a_file_and_skips_the_rest(tmp_path):
    # materials and a scene in one file: fdt reads its materials, zeta its scene
    cfg = tmp_path / "mixed.cfg"
    cfg.write_text(packaged_config("materials", "default").read_text() + "\n"
                   + packaged_config("scenes", "ybco-chip").read_text())
    paths, loaded = load_configs([cfg], ("materials", "stack"))
    assert paths == [str(cfg), str(packaged_config("stacks", "sapphire-ybco"))]
    assert set(loaded) == {"materials", "stack"}
    paths, loaded = load_configs([cfg], ("scene",))
    assert paths == [str(cfg)]
    assert [r.name for r in loaded["scene"].regions] == [
        r.name for r in load_scene(packaged_config("scenes", "ybco-chip")).regions
    ]


@pytest.mark.parametrize("model, name, piecewise", [
    ("gamma1", "temp-simple", False),
    ("gamma2", "temp-piecewise", True),
    ("power", "surface-power", None),
    ("arrhenius", "surface-arrhenius", None),
])
def test_load_synth_params_reads_each_model_s_packaged_file(model, name, piecewise):
    path, params = load_synth_params(None, model)
    assert path == str(packaged_config("synth", name))
    if piecewise is None:
        assert params == load_surface_params(path, model)
    else:
        assert params.piecewise is piecewise


def test_load_synth_params_gamma2_needs_piecewise_params():
    simple = packaged_config("synth", "temp-simple")
    assert load_synth_params(simple, "gamma1")[0] == str(simple)
    with pytest.raises(ConfigFileError) as err:
        load_synth_params(simple, "gamma2")
    assert str(err.value) == f"{simple}: gamma2 needs t2_K, beta2, t_star_K"


# ---------------------------------------------------------------------------
# parse errors carry file and section context


def test_unknown_material_kind(tmp_path):
    path = tmp_path / "mat.cfg"
    path.write_text("[material:foo]\nkind = plasma\n")
    with pytest.raises(ConfigFileError) as err:
        load_materials(path)
    assert "plasma" in str(err.value)


def test_two_fluid_superconductor_takes_an_explicit_normal_state_table(tmp_path):
    path = tmp_path / "mat.cfg"
    path.write_text("[material:sc]\nkind = two_fluid_sc\nlambda0_m = 1.5e-7\ntc_K = 88\n"
                    "sigma_n_S_per_m = 1.8e6\nrho_normal =\n    88 5e-7\n    300 2e-6\n")
    sc = load_materials(path)["sc"]
    assert isinstance(sc, TwoFluidSC)
    # the table as given, not the default built from sigma_n and Tc
    assert sc.rho_normal.lookup(88.0) == pytest.approx(5e-7, rel=1e-12)
    assert sc.rho_normal.lookup(300.0) == pytest.approx(2e-6, rel=1e-12)
    assert sc.rho_normal.label == "sc-normal"


@pytest.mark.parametrize("loader, kind", [
    (load_materials, "material"),
    (lambda path: load_circuit(path, {}), "electrode"),
    (load_scene, "region"),
])
def test_a_file_without_the_sections_a_loader_needs_is_a_config_error(loader, kind, tmp_path):
    path = tmp_path / "empty.cfg"
    # a scene file needs [scene] before its regions are looked for
    path.write_text("[scene]\nion_height_m = 1e-4\n" if kind == "region" else "# nothing\n")
    with pytest.raises(ConfigFileError, match=re.escape(f"{path}: no [{kind}:NAME] sections found")):
        loader(path)


@pytest.mark.parametrize("loader, section", [
    (lambda path: load_stack(path, {}), "stack"),
    (load_scene, "scene"),
])
def test_a_missing_single_section_is_a_config_error(loader, section, tmp_path):
    path = tmp_path / "other.cfg"
    path.write_text("[region:a]\nrect_m = 0 1 0 1\n")
    with pytest.raises(ConfigFileError, match=re.escape(f"{path}: missing required "
                                                        f"section [{section}]")):
        loader(path)


def test_an_unreadable_config_file_is_a_config_error(tmp_path):
    path = tmp_path / "absent.cfg"
    with pytest.raises(ConfigFileError, match=re.escape(f"cannot read config {path}: ")):
        config_roles(path)


def test_a_repeated_gamma0_frequency_is_a_config_error(tmp_path):
    path = tmp_path / "temp.cfg"
    path.write_text("[temp-model]\nt1_K = 22\nbeta1 = 1.7\n"
                    "gamma0_phps =\n    1e6 0.4\n    1e6 0.5\n")
    with pytest.raises(ConfigFileError, match=re.escape(
            f"{path}: [temp-model] gamma0_phps: duplicate frequency 1000000.0 Hz")):
        load_temp_params(path)


def test_an_unknown_surface_model_kind_is_a_config_error():
    path = packaged_config("synth", "surface-power")
    with pytest.raises(ConfigFileError, match="^unknown surface model kind 'linear'$"):
        load_surface_params(path, "linear")


def test_unknown_key_reports_location(tmp_path):
    path = tmp_path / "mat.cfg"
    path.write_text("[material:foo]\nkind = conductor\nrho_table = 4 1e-10\ncolour = red\n")
    with pytest.raises(ConfigFileError) as err:
        load_materials(path)
    message = str(err.value)
    assert "colour" in message
    assert "material:foo" in message
    assert path.name in message


def test_bad_float_reports_location(tmp_path):
    path = tmp_path / "mat.cfg"
    path.write_text("[material:foo]\nkind = lossy_dielectric\neps_r = ten\n")
    with pytest.raises(ConfigFileError) as err:
        load_materials(path)
    assert "eps_r" in str(err.value)


def test_stack_with_unknown_material(tmp_path, materials):
    path = tmp_path / "stack.cfg"
    path.write_text("[stack]\nname = t\nlayers = kryptonite bulk\n")
    with pytest.raises(ConfigFileError) as err:
        load_stack(path, materials)
    assert "kryptonite" in str(err.value)


def test_circuit_with_dangling_references(tmp_path, materials):
    path = tmp_path / "circ.cfg"
    path.write_text(
        "[electrode:E]\n"
        "distance_m = 1e-3\nstrip_length_m = 1e-3\nstrip_width_m = 1e-5\n"
        "lead = missing-lead\n"
    )
    with pytest.raises(ConfigFileError) as err:
        load_circuit(path, materials)
    assert "missing-lead" in str(err.value)


def test_lead_multiplicity_requires_bond_wire(tmp_path, materials):
    path = tmp_path / "circ.cfg"
    path.write_text(
        "[lead:L]\ntrace = cu 1e-4 1e-4 1e-2\n\n"
        "[electrode:E]\n"
        "distance_m = 1e-3\nstrip_length_m = 1e-3\nstrip_width_m = 1e-5\n"
        "lead = L\nbonds = 2\n"
    )
    with pytest.raises(ConfigFileError):
        load_circuit(path, materials)


def test_circuit_film_must_name_a_conductor_or_superconductor(tmp_path, materials):
    path = tmp_path / "circ.cfg"
    path.write_text(
        "[electrode:E]\n"
        "distance_m = 1e-3\nstrip_length_m = 1e-3\nstrip_width_m = 1e-5\n"
        "films = au 200e-9, sapphire 300e-9\n"
    )
    with pytest.raises(ConfigFileError) as err:
        load_circuit(path, materials)
    assert str(err.value) == (f"{path}: [electrode:E] film material 'sapphire' "
                              "must be a conductor or a superconductor")


def test_circuit_duplicate_expanded_names(tmp_path, materials):
    # DC with copies = 2 expands to DC1, DC2, which collides with [electrode:DC1]
    electrode = "distance_m = 1e-3\nstrip_length_m = 1e-3\nstrip_width_m = 1e-5\n"
    path = tmp_path / "circ.cfg"
    path.write_text(
        f"[electrode:DC]\n{electrode}copies = 2\n\n[electrode:DC1]\n{electrode}"
    )
    with pytest.raises(ConfigFileError, match="DC1"):
        load_circuit(path, materials)


def test_circuit_rejects_the_name_of_the_sum_row(tmp_path, materials):
    electrode = "distance_m = 1e-3\nstrip_length_m = 1e-3\nstrip_width_m = 1e-5\n"
    path = tmp_path / "circ.cfg"
    path.write_text(f"[electrode:TOTAL]\n{electrode}")
    with pytest.raises(ConfigFileError, match=r"\[electrode:TOTAL\]"):
        load_circuit(path, materials)
    # the check applies to expanded names: copies of TOTAL are TOTAL1, TOTAL2
    path.write_text(f"[electrode:TOTAL]\n{electrode}copies = 2\n")
    assert [e.name for e in load_circuit(path, materials)] == ["TOTAL1", "TOTAL2"]


@pytest.mark.parametrize("kind", ["filter", "lead", "electrode"])
def test_circuit_section_names_must_be_non_empty(kind, tmp_path, materials):
    electrode = "distance_m = 1e-3\nstrip_length_m = 1e-3\nstrip_width_m = 1e-5\n"
    path = tmp_path / "circ.cfg"
    path.write_text(f"[electrode:E]\n{electrode}\n[{kind}:]\n{electrode}")
    with pytest.raises(ConfigFileError, match=f"\\[{kind}:\\] section name"):
        load_circuit(path, materials)


def test_scene_inline_comments_and_case(tmp_path):
    # keys keep their case; inline comments are stripped
    path = tmp_path / "scene.cfg"
    path.write_text(
        "[scene]\n"
        "ion_height_m = 100e-6  ; metres\n"
        "axial_x = 0\n"
        "axial_y = 1\n\n"
        "[region:Target]\n"
        "rect_m = -1e-4 1e-4 -1e-4 1e-4  # x0 x1 y0 y1\n"
    )
    scene = load_scene(path)
    assert scene.ion_height == pytest.approx(100e-6)
    assert scene.axial_dir == pytest.approx((0.0, 1.0))
    assert scene.region("Target").name == "Target"


@pytest.mark.parametrize(
    "scene, regions, message",
    [
        ("ion_height_m = -1e-6\n", "[region:a]\nrect_m = 0 1e-4 0 1e-4\n",
         "[scene] ion height must be > 0"),
        ("ion_height_m = 1e-4\n",
         "[region:a]\nrect_m = 0 1e-4 0 1e-4\n\n[region:b]\nrect_m = 5e-5 2e-4 0 1e-4\n",
         "[scene] regions 'a' and 'b' overlap"),
        ("ion_height_m = 1e-4\naxial_x = 0\naxial_y = 0\n",
         "[region:a]\nrect_m = 0 1e-4 0 1e-4\n",
         "[scene] |axial_dir| must be > 0, got 0.0"),
    ],
    ids=["negative-height", "overlap", "zero-axis"],
)
def test_scene_faults_name_the_scene_section(scene, regions, message, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[scene]\n{scene}\n{regions}")
    with pytest.raises(ConfigFileError) as err:
        load_scene(path)
    assert str(err.value).startswith(f"{path}: {message}")


# A number in a config value: not part of a key or section name like 'C1'.
_NUMBER = re.compile(r"(?<![\w.+-])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def _numeric_fields(text):
    """(start, end) spans of the numbers in a config's values, bar ``copies``."""
    spans = []
    offset = 0
    for line in text.splitlines(keepends=True):
        if not line.strip().startswith(("#", "[", "copies")):
            spans += [(offset + m.start(), offset + m.end()) for m in _NUMBER.finditer(line)]
        offset += len(line)
    return spans


_LOADERS = {
    "circuits": load_circuit,
    "stacks": load_stack,
    "scenes": lambda path, mats: load_scene(path),
}


@pytest.mark.parametrize(
    "category, name",
    [
        ("circuits", "ybco-trap"),
        ("circuits", "al-lead-benchmark"),
        ("stacks", "sapphire-ybco-au"),
        ("stacks", "sapphire-ybco"),
        ("scenes", "ybco-chip"),
    ],
)
def test_any_text_in_a_numeric_field_loads_or_is_config_error(
    category, name, materials, tmp_path_factory
):
    text = packaged_config(category, name).read_text(encoding="utf-8")
    spans = _numeric_fields(text)
    assert spans
    path = tmp_path_factory.mktemp("fuzz") / f"{name}.cfg"
    values = st.one_of(
        st.text(st.characters(codec="utf-8")),
        st.floats().map(repr),
        st.integers().map(str),
    )

    @settings(max_examples=200, deadline=None)
    @given(span=st.sampled_from(spans), value=values)
    def check(span, value):
        start, end = span
        path.write_text(text[:start] + value + text[end:], encoding="utf-8")
        try:
            _LOADERS[category](path, materials)
        except ConfigFileError:
            pass

    check()


# ---------------------------------------------------------------------------
# heating-rate CSV


def sample_dataset():
    return HeatingDataset(
        (
            HeatingRecord(15.0, 0.4e6, 3.8, 0.4),
            HeatingRecord(15.0, 1.0e6, 0.71, 0.07),
            HeatingRecord(80.0, 1.0e6, 5.2, 0.5),
        )
    )


def test_heating_csv_round_trip(tmp_path):
    path = tmp_path / "rates.csv"
    manifest = make_manifest("synth", seed=3)
    write_heating_csv(path, sample_dataset(), manifest)
    back = read_heating_csv(path)
    assert back == sample_dataset()
    # manifest survives as the comment header
    assert csv_manifest(path)["seed"] == 3


def test_heating_csv_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "rates.csv"
    path.write_text(
        "# manifest: {}\n"
        "T_K,f_Hz,gamma_phps,sigma_phps\n"
        "\n"
        "# mid-file comment\n"
        "40.0,1e6,1.5,0.2\n"
    )
    back = read_heating_csv(path)
    assert len(back.records) == 1
    assert back.records[0].temperature == pytest.approx(40.0)


def test_heating_csv_header_enforced(tmp_path):
    path = tmp_path / "rates.csv"
    path.write_text("T_K,f_Hz,gamma\n40.0,1e6,1.5\n")
    with pytest.raises(DataFileError):
        read_heating_csv(path)


def test_heating_csv_bad_row_is_line_numbered(tmp_path):
    path = tmp_path / "rates.csv"
    path.write_text(
        "T_K,f_Hz,gamma_phps,sigma_phps\n"
        "40.0,1e6,1.5,0.2\n"
        "40.0,1e6,oops,0.2\n"
    )
    with pytest.raises(DataFileError) as err:
        read_heating_csv(path)
    assert "3" in str(err.value)


def test_heating_csv_empty_rejected(tmp_path):
    path = tmp_path / "rates.csv"
    path.write_text("T_K,f_Hz,gamma_phps,sigma_phps\n")
    with pytest.raises(DataFileError):
        read_heating_csv(path)


def test_heating_csv_of_only_comments_and_blank_lines_is_empty(tmp_path):
    path = tmp_path / "rates.csv"
    path.write_text("# no header yet\n\n   \n# still none\n")
    with pytest.raises(DataFileError, match=re.escape(
            f"{path}: empty file (header row required)")):
        read_heating_csv(path)


def test_heating_csv_missing_file(tmp_path):
    with pytest.raises(DataFileError):
        read_heating_csv(tmp_path / "nope.csv")


def test_alpha_csv_reads_triples_and_numbers_bad_lines(tmp_path):
    path = tmp_path / "alphas.csv"
    path.write_text("# measured\nT_K,alpha,sigma_alpha\n\n50.0,-1.0,0.1\n")
    assert read_alpha_csv(path) == [(50.0, -1.0, 0.1)]
    for body, lineno in (
        ("T_K,alpha\n50.0,-1.0\n", 1),
        ("T_K,alpha,sigma_alpha\n50.0,-1.0,0.1\n# c\n80.0,-1.1\n", 4),
        ("T_K,alpha,sigma_alpha\n50.0,-1.0,0.1\n80.0,oops,0.1\n", 3),
    ):
        path.write_text(body)
        with pytest.raises(DataFileError, match=f"alphas.csv:{lineno}:"):
            read_alpha_csv(path)
    path.write_text("T_K,alpha,sigma_alpha\n")
    with pytest.raises(DataFileError, match="no data rows"):
        read_alpha_csv(path)


# ---------------------------------------------------------------------------
# manifests and report files


def test_manifest_fields_and_determinism():
    a = make_manifest(
        "fdt",
        config_paths=[packaged_config("stacks", "sapphire-ybco")],
        overrides={"temps": "10:250:25"},
        seed=7,
    )
    b = make_manifest(
        "fdt",
        config_paths=[packaged_config("stacks", "sapphire-ybco")],
        overrides={"temps": "10:250:25"},
        seed=7,
    )
    assert a == b
    data = json.loads(json.dumps(a))
    assert data["command"] == "fdt"
    assert data["seed"] == 7
    assert data["tool_version"] == "0.1.0"
    assert data["overrides"] == {"temps": "10:250:25"}
    # fingerprint ties the manifest to the physical constants in use
    assert len(data["constants_fingerprint"]) == 16
    # no timestamps or other run-specific entropy
    assert set(data) == {
        "command",
        "config_paths",
        "overrides",
        "seed",
        "tool_version",
        "constants_fingerprint",
    }


def test_format_value_cases():
    assert format_value(None) == ""
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(np.int64(4)) == "4"
    assert format_value(np.float64(3.25)) == "3.25"
    assert format_value(1.5) == "1.5"
    # repr round-trips floats exactly
    value = 7.332271e-16
    assert float(format_value(value)) == value
    assert format_value("text") == "text"
    with pytest.raises(DomainError):
        format_value(float("nan"))
    with pytest.raises(DomainError):
        format_value(math.inf)


# numpy scalars and the text the writers give them: numpy registers its
# integer and floating types as numbers.Integral and numbers.Real
_NUMPY_SCALARS = [
    (np.int64(-7), "-7"),
    (np.uint64(2**64 - 1), "18446744073709551615"),
    (np.float32(0.1), "0.10000000149011612"),
    (np.float64(0.1), "0.1"),
    (np.float64(-0.0), "-0.0"),
    (np.float64(7.332271e-16), "7.332271e-16"),
]


@pytest.mark.parametrize("value, text", _NUMPY_SCALARS,
                         ids=[type(v).__name__ + repr(t) for v, t in _NUMPY_SCALARS])
def test_writers_give_numpy_scalars_their_text(value, text, tmp_path):
    assert format_value(value) == text
    path = tmp_path / "report.json"
    write_json_report(path, {}, {"value": value, "values": [value, {"x": value}]})
    assert path.read_text().splitlines()[3:9] == [
        f'  "value": {text},', '  "values": [', f"    {text},", "    {",
        f'      "x": {text}', "    }"]


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    manifest = make_manifest("jnn", seed=None)
    write_csv(path, manifest, ["T_K", "S_E"], [[20.0, 7.33e-16], [40.0, None]])
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest: {")
    assert lines[1] == "T_K,S_E"
    assert lines[2] == "20.0,7.33e-16"
    assert lines[3] == "40.0,"
    assert csv_manifest(path)["command"] == "jnn"


def test_write_csv_comments_follow_the_manifest(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, make_manifest("taf"), ["T_K"], [[20.0]], ["a: 1", "b"])
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest: {")
    assert lines[1:] == ["# a: 1", "# b", "T_K", "20.0"]


def test_write_json_report(tmp_path):
    path = tmp_path / "report.json"
    manifest = make_manifest("fit", seed=42)
    payload = {"alpha": np.float64(-1.07), "n": np.int64(54), "flag": True}
    write_json_report(path, manifest, payload)
    data = json.loads(path.read_text())
    assert data["schema"] == "trapnoise-report/1"
    assert data["manifest"]["seed"] == 42
    assert data["alpha"] == pytest.approx(-1.07)
    assert data["n"] == 54
    assert data["flag"] is True


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)],
    ids=["nan", "inf", "-inf", "np-nan"],
)
def test_writers_refuse_non_finite_values_and_leave_no_file(bad, tmp_path):
    manifest = make_manifest("fit")
    csv_path = tmp_path / "table.csv"
    with pytest.raises(DomainError, match="non-finite"):
        write_csv(csv_path, manifest, ["a", "b"], [[1.0, 2.0], [3.0, bad]])
    assert not csv_path.exists()
    json_path = tmp_path / "report.json"
    with pytest.raises(DomainError, match="non-finite"):
        write_json_report(json_path, manifest, {"errors": {"t1": bad, "n": 3}})
    assert not json_path.exists()
