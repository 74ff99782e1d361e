"""JSON schema for `coxcheck --json` run reports."""

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["command", "subcommand", "timings", "exit_code"],
    "properties": {
        "command": {"type": "array", "items": {"type": "string"}},
        "subcommand": {
            "enum": ["check", "decide", "audit", "equations", "generate", "search-min"]
        },
        "timings": {
            "type": "object",
            "required": ["total_s"],
            "properties": {"total_s": {"type": "number", "minimum": 0}},
        },
        "exit_code": {"type": "integer", "enum": [0, 1, 2]},
    },
    "allOf": [
        {
            "if": {"properties": {"subcommand": {"const": "check"}}},
            "then": {
                "required": ["checks", "par5_gap"],
                "properties": {
                    "checks": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["name", "verdict"],
                            "properties": {
                                "verdict": {"enum": ["pass", "fail", "untestable"]}
                            },
                        },
                    },
                    "par5_gap": {"type": "string"},
                },
            },
        },
        {
            "if": {"properties": {"subcommand": {"const": "decide"}}},
            "then": {
                "required": ["verdict", "seed"],
                "properties": {
                    "verdict": {
                        "type": "object",
                        "required": ["kind", "budget"],
                        "properties": {
                            "kind": {"enum": ["witness", "refutation", "unknown"]}
                        },
                    }
                },
            },
        },
        {
            "if": {"properties": {"subcommand": {"const": "audit"}}},
            "then": {
                "required": ["theorem", "hypotheses"],
                "properties": {
                    "hypotheses": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["name", "verdict"],
                            "properties": {
                                "verdict": {"enum": ["pass", "fail", "untestable"]}
                            },
                        },
                    },
                    # the Par5′ pass of a theorem-4 audit: each missed target
                    # [[α, β, γ], least deviation], the worst target with its
                    # least deviation and member index, the members not read
                    "density": {
                        "type": "object",
                        "required": ["passed", "vacuous", "grid", "epsilon",
                                     "targets_checked", "failures", "worst_target"],
                        "properties": {
                            "failures": {
                                "type": "array",
                                "items": {"type": "array", "minItems": 2, "maxItems": 2},
                            },
                            "worst_target": {
                                "type": ["array", "null"], "minItems": 3, "maxItems": 3,
                            },
                        },
                    },
                },
            },
        },
        {
            "if": {"properties": {"subcommand": {"const": "equations"}}},
            "then": {
                "required": ["equation", "grid", "residual", "coverage"],
            },
        },
        {
            "if": {"properties": {"subcommand": {"const": "search-min"}}},
            "then": {
                "required": ["atoms", "grid", "hit", "consistent_candidates"],
            },
        },
    ],
}
