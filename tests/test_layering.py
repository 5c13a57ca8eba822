"""Layering: the byte layouts of pages and update packages are known to the codec alone.

Every other module reads a node through ``codec.node_view``, a leaf page
through ``codec.leaf_list_view``, an object page (gantry, zone head or
zone continuation) through ``codec.object_view``, an update package
through ``codec.parse_update`` and a version directory page through
``codec.directory_slots``, so a layout change touches one module.
This is an AST check over the package's sources: no module but
``codec.py`` may import or name an offset, the entry area, the address
width, a tag value, an object page's magic, kind bytes or vertex layout,
the package magic, or a version slot's size, offsets or magic.
"""

import ast
import re
from pathlib import Path

import flashquad

LAYOUT = re.compile(
    r"NODE_\w+_OFF|NODE_ENTRY_AREA|LEAF_\w+_OFF|ADDR_BITS|TAG_\w+|OBJ_\w+|ZONE_VERTS_\w+|UPDATE_MAGIC"
    r"|VERSION_RECORD_SIZE|VERSION_\w+_OFF|VERSION_MAGIC"
)


def layout_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of each layout constant a module imports or names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names if LAYOUT.fullmatch(alias.name)]
        elif isinstance(node, ast.Name) and LAYOUT.fullmatch(node.id):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and LAYOUT.fullmatch(node.attr):
            found.append((node.lineno, node.attr))
    return found


def test_the_check_sees_every_way_to_reach_a_layout_constant():
    source = (
        "from .codec import ADDR_BITS, ENTRY_EMPTY\n"
        "from . import codec\n"
        "x = codec.NODE_ENTRIES_OFF + codec.NODE_FANOUT\n"
        "y = page[LEAF_CRC_OFF] == TAG_LEAF or codec.NODE_ENTRY_AREA\n"
        "from .codec import OBJ_MAGIC, ZONE, GANTRY\n"
        "z = page[1] == codec.OBJ_ZONE_CONT and codec.ZONE_VERTS_PER_PAGE or pkg[:4] == UPDATE_MAGIC\n"
        "slot = raw[s * VERSION_RECORD_SIZE : (s + 1) * codec.VERSION_RECORD_SIZE]\n"
    )
    assert sorted(layout_names(source)) == [
        (1, "ADDR_BITS"), (3, "NODE_ENTRIES_OFF"), (4, "LEAF_CRC_OFF"), (4, "NODE_ENTRY_AREA"), (4, "TAG_LEAF"),
        (5, "OBJ_MAGIC"), (6, "OBJ_ZONE_CONT"), (6, "UPDATE_MAGIC"), (6, "ZONE_VERTS_PER_PAGE"),
        (7, "VERSION_RECORD_SIZE"), (7, "VERSION_RECORD_SIZE"),
    ]


def test_only_the_codec_knows_the_page_layouts():
    package = Path(flashquad.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert any(m.name == "codec.py" for m in modules) and len(modules) > 5
    offenders = [
        f"{m.name}:{line} {name}"
        for m in modules
        if m.name != "codec.py"
        for line, name in layout_names(m.read_text())
    ]
    assert offenders == []
